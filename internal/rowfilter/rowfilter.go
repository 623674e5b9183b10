// Package rowfilter defines a restricted, serializable row predicate that
// can be evaluated inside the KV layer — the "row filtering push-down" the
// paper lists as future work (§8): "performing row filtering on the KV node
// rather than the SQL node would bring efficiency gains" for analytical
// queries that lack an efficient index.
//
// The predicate language is deliberately tiny — a conjunction of
// single-column comparisons against constants — so the KV layer can evaluate
// it without any knowledge of SQL: the SQL layer compiles eligible WHERE
// conjuncts down to this form, and scan responses then carry only matching
// rows across the process boundary.
//
// The package sits below both the SQL layer and the KV server (neither may
// import the other), so it owns the minimal value model the two share.
package rowfilter

import (
	"bytes"
	"fmt"

	"crdbserverless/internal/codec"
)

// Kind is the type of a filter constant.
type Kind byte

// Filter constant kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
	KindBool
)

// Op is a comparison operator.
type Op byte

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Value is a filter constant.
type Value struct {
	Kind Kind
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// Cond is one column comparison: row[Col] Op Value.
type Cond struct {
	Col   int
	Op    Op
	Value Value
}

// Filter is a conjunction of conditions. The zero Filter matches every row.
type Filter struct {
	Conds []Cond
}

// Empty reports whether the filter matches everything.
func (f *Filter) Empty() bool { return f == nil || len(f.Conds) == 0 }

// RowValue is the KV-visible view of one decoded column: the evaluator
// receives column values through a RowAccessor so it never depends on the
// SQL layer's datum representation.
type RowAccessor interface {
	// Column returns the value at the given offset. ok is false when the
	// offset is out of range.
	Column(i int) (Value, bool)
}

// Matches evaluates the conjunction against a row. SQL NULL semantics apply:
// a comparison involving NULL is not true, so such rows are filtered out.
func (f *Filter) Matches(row RowAccessor) bool {
	if f.Empty() {
		return true
	}
	for _, c := range f.Conds {
		v, ok := row.Column(c.Col)
		if !ok || v.Null || c.Value.Null {
			return false
		}
		cmp, comparable := compare(v, c.Value)
		if !comparable {
			return false
		}
		switch c.Op {
		case OpEq:
			if cmp != 0 {
				return false
			}
		case OpNe:
			if cmp == 0 {
				return false
			}
		case OpLt:
			if cmp >= 0 {
				return false
			}
		case OpLe:
			if cmp > 0 {
				return false
			}
		case OpGt:
			if cmp <= 0 {
				return false
			}
		case OpGe:
			if cmp < 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// compare orders two values, with INT/FLOAT comparing numerically.
func compare(a, b Value) (int, bool) {
	num := func(v Value) (float64, bool) {
		switch v.Kind {
		case KindInt:
			return float64(v.I), true
		case KindFloat:
			return v.F, true
		default:
			return 0, false
		}
	}
	if x, ok := num(a); ok {
		y, ok2 := num(b)
		if !ok2 {
			return 0, false
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.Kind != b.Kind {
		return 0, false
	}
	switch a.Kind {
	case KindString:
		return bytes.Compare([]byte(a.S), []byte(b.S)), true
	case KindBool:
		switch {
		case !a.B && b.B:
			return -1, true
		case a.B && !b.B:
			return 1, true
		default:
			return 0, true
		}
	default:
		return 0, false
	}
}

// Encode serializes the filter for transport in a KV request.
func (f *Filter) Encode() []byte {
	b := codec.AppendVersion(nil)
	b = codec.AppendUvarint(b, uint64(len(f.Conds)))
	for _, c := range f.Conds {
		b = codec.AppendVarint(b, int64(c.Col))
		b = append(b, byte(c.Op), byte(c.Value.Kind))
		b = codec.AppendBool(b, c.Value.Null)
		b = codec.AppendVarint(b, c.Value.I)
		b = codec.AppendFloat64(b, c.Value.F)
		b = codec.AppendString(b, c.Value.S)
		b = codec.AppendBool(b, c.Value.B)
	}
	return b
}

// condMinSize is the smallest encoded Cond: column, op, kind, null, int,
// 8 float bytes, string length, bool.
const condMinSize = 15

// Decode parses a transported filter.
func Decode(b []byte) (*Filter, error) {
	r := codec.NewReader(b)
	f := &Filter{}
	if n := r.Count(condMinSize); n > 0 {
		f.Conds = make([]Cond, n)
		for i := range f.Conds {
			c := &f.Conds[i]
			c.Col = r.Int()
			c.Op = Op(r.Byte())
			c.Value = Value{Kind: Kind(r.Byte()), Null: r.Bool(), I: r.Varint(), F: r.Float64(), S: r.String(), B: r.Bool()}
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("rowfilter: decode: %w", err)
	}
	return f, nil
}
