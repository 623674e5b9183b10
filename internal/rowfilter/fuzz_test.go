package rowfilter

import (
	"math"
	"testing"

	"crdbserverless/internal/codec/codectest"
)

func FuzzDecode(f *testing.F) {
	codectest.Fuzz(f, Decode, (*Filter).Encode,
		[][]byte{codectest.WithCount()},
		&Filter{},
		&Filter{Conds: []Cond{
			{Col: 2, Op: OpLe, Value: vf(3.14)},
			{Col: 0, Op: OpEq, Value: vs("hello")},
		}},
		&Filter{Conds: []Cond{
			{Col: 1, Op: OpGe, Value: vi(math.MinInt64)},
			{Col: 3, Op: OpNe, Value: vb(true)},
			{Col: 4, Op: OpLt, Value: Value{Null: true}},
		}},
	)
}
