package rowfilter

import (
	"testing"
	"testing/quick"
)

type row []Value

func (r row) Column(i int) (Value, bool) {
	if i < 0 || i >= len(r) {
		return Value{}, false
	}
	return r[i], true
}

func vi(v int64) Value   { return Value{Kind: KindInt, I: v} }
func vf(v float64) Value { return Value{Kind: KindFloat, F: v} }
func vs(v string) Value  { return Value{Kind: KindString, S: v} }
func vb(v bool) Value    { return Value{Kind: KindBool, B: v} }
func vnull() Value       { return Value{Null: true} }

func TestEmptyFilterMatchesAll(t *testing.T) {
	var f Filter
	if !f.Matches(row{vi(1)}) {
		t.Fatal("empty filter must match")
	}
	var nilF *Filter
	if !nilF.Matches(row{}) {
		t.Fatal("nil filter must match")
	}
}

func TestComparisonOps(t *testing.T) {
	r := row{vi(5), vs("m"), vb(true), vf(2.5)}
	cases := []struct {
		cond Cond
		want bool
	}{
		{Cond{Col: 0, Op: OpEq, Value: vi(5)}, true},
		{Cond{Col: 0, Op: OpEq, Value: vi(6)}, false},
		{Cond{Col: 0, Op: OpNe, Value: vi(6)}, true},
		{Cond{Col: 0, Op: OpLt, Value: vi(6)}, true},
		{Cond{Col: 0, Op: OpLe, Value: vi(5)}, true},
		{Cond{Col: 0, Op: OpGt, Value: vi(5)}, false},
		{Cond{Col: 0, Op: OpGe, Value: vi(5)}, true},
		{Cond{Col: 1, Op: OpLt, Value: vs("z")}, true},
		{Cond{Col: 1, Op: OpGt, Value: vs("z")}, false},
		{Cond{Col: 2, Op: OpEq, Value: vb(true)}, true},
		{Cond{Col: 2, Op: OpGt, Value: vb(false)}, true},
		{Cond{Col: 3, Op: OpEq, Value: vf(2.5)}, true},
		// Cross-numeric: INT column vs FLOAT constant.
		{Cond{Col: 0, Op: OpLt, Value: vf(5.5)}, true},
		{Cond{Col: 3, Op: OpGt, Value: vi(2)}, true},
	}
	for _, c := range cases {
		f := Filter{Conds: []Cond{c.cond}}
		if got := f.Matches(r); got != c.want {
			t.Fatalf("col%d %s %v: got %v, want %v", c.cond.Col, c.cond.Op, c.cond.Value, got, c.want)
		}
	}
}

func TestNullNeverMatches(t *testing.T) {
	r := row{vnull()}
	for _, op := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		f := Filter{Conds: []Cond{{Col: 0, Op: op, Value: vi(1)}}}
		if f.Matches(r) {
			t.Fatalf("NULL %s 1 matched", op)
		}
	}
	// NULL constant also never matches.
	f := Filter{Conds: []Cond{{Col: 0, Op: OpEq, Value: vnull()}}}
	if f.Matches(row{vi(1)}) {
		t.Fatal("x = NULL matched")
	}
}

func TestConjunction(t *testing.T) {
	f := Filter{Conds: []Cond{
		{Col: 0, Op: OpGe, Value: vi(10)},
		{Col: 0, Op: OpLt, Value: vi(20)},
	}}
	if !f.Matches(row{vi(15)}) || f.Matches(row{vi(5)}) || f.Matches(row{vi(20)}) {
		t.Fatal("range conjunction broken")
	}
}

func TestMismatchedTypesAndBounds(t *testing.T) {
	f := Filter{Conds: []Cond{{Col: 0, Op: OpEq, Value: vs("x")}}}
	if f.Matches(row{vi(1)}) {
		t.Fatal("int = string matched")
	}
	f = Filter{Conds: []Cond{{Col: 9, Op: OpEq, Value: vi(1)}}}
	if f.Matches(row{vi(1)}) {
		t.Fatal("out-of-range column matched")
	}
	if got := Op(99).String(); got == "" {
		t.Fatal("unknown op string empty")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Filter{Conds: []Cond{
		{Col: 2, Op: OpLe, Value: vf(3.14)},
		{Col: 0, Op: OpEq, Value: vs("hello")},
	}}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Conds) != 2 || out.Conds[0].Value.F != 3.14 || out.Conds[1].Value.S != "hello" {
		t.Fatalf("round trip = %+v", out)
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

func TestMatchesConsistentWithComparisonProperty(t *testing.T) {
	// Property: for int columns, Matches agrees with direct comparison.
	f := func(col, constant int32, opSel uint8) bool {
		op := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[opSel%6]
		filter := Filter{Conds: []Cond{{Col: 0, Op: op, Value: vi(int64(constant))}}}
		got := filter.Matches(row{vi(int64(col))})
		var want bool
		switch op {
		case OpEq:
			want = col == constant
		case OpNe:
			want = col != constant
		case OpLt:
			want = col < constant
		case OpLe:
			want = col <= constant
		case OpGt:
			want = col > constant
		case OpGe:
			want = col >= constant
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
