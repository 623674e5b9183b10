package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := AppendVersion(nil)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendVarint(b, -1)
	b = AppendBool(b, true)
	b = AppendFloat64(b, math.Copysign(0, -1))
	b = AppendFloat64(b, 2.5)
	b = AppendBytes(b, []byte("key"))
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"a", "", "c"})
	b = AppendInts(b, []int{-3, 0, 7})
	b = AppendStringMap(b, map[string]string{"z": "1", "a": "2", "m": ""})
	b = AppendUvarint(b, math.MaxUint32)
	b = AppendVarint(b, math.MinInt32)

	r := NewReader(b)
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if got := r.Float64(); got != 0 || !math.Signbit(got) {
		t.Fatalf("Float64 = %v, want -0", got)
	}
	if got := r.Float64(); got != 2.5 {
		t.Fatalf("Float64 = %v", got)
	}
	if got := r.Bytes(); string(got) != "key" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := r.String(); got != "héllo" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Strings(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Fatalf("Strings = %q", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{-3, 0, 7}) {
		t.Fatalf("Ints = %v", got)
	}
	if got := r.StringMap(); !reflect.DeepEqual(got, map[string]string{"a": "2", "m": "", "z": "1"}) {
		t.Fatalf("StringMap = %v", got)
	}
	if got := r.Uint32(); got != math.MaxUint32 {
		t.Fatalf("Uint32 = %d", got)
	}
	if got := r.Int32(); got != math.MinInt32 {
		t.Fatalf("Int32 = %d", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyDecodesNil: empty byte strings, lists, and maps read back as
// nil, matching what callers saw from gob.
func TestEmptyDecodesNil(t *testing.T) {
	b := AppendVersion(nil)
	b = AppendBytes(b, []byte{})
	b = AppendStrings(b, []string{})
	b = AppendInts(b, nil)
	b = AppendStringMap(b, map[string]string{})
	r := NewReader(b)
	if v := r.Bytes(); v != nil {
		t.Fatalf("Bytes = %#v, want nil", v)
	}
	if v := r.Strings(); v != nil {
		t.Fatalf("Strings = %#v, want nil", v)
	}
	if v := r.Ints(); v != nil {
		t.Fatalf("Ints = %#v, want nil", v)
	}
	if v := r.StringMap(); v != nil {
		t.Fatalf("StringMap = %#v, want nil", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBytesDoNotAlias: a decoded byte string is a copy, so the input
// buffer can be reused.
func TestBytesDoNotAlias(t *testing.T) {
	b := AppendBytes(AppendVersion(nil), []byte("abc"))
	r := NewReader(b)
	v := r.Bytes()
	b[2] = 'X'
	if string(v) != "abc" {
		t.Fatalf("decoded bytes changed with the input: %q", v)
	}
}

// TestMapOrderDeterministic: equal maps encode to equal bytes whatever
// their insertion order.
func TestMapOrderDeterministic(t *testing.T) {
	m1 := map[string]string{}
	m2 := map[string]string{}
	for i := 0; i < 50; i++ {
		k := string(rune('a'+i%26)) + string(rune('0'+i/26))
		m1[k] = k
	}
	for i := 49; i >= 0; i-- {
		k := string(rune('a'+i%26)) + string(rune('0'+i/26))
		m2[k] = k
	}
	if !bytes.Equal(AppendStringMap(nil, m1), AppendStringMap(nil, m2)) {
		t.Fatal("equal maps encoded differently")
	}
}

// TestRejects covers the strictness rules: each input is malformed and
// must fail with ErrMalformed.
func TestRejects(t *testing.T) {
	v := Version
	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"empty":              {nil, func(r *Reader) {}},
		"wrong version":      {[]byte{v + 1}, func(r *Reader) {}},
		"trailing bytes":     {[]byte{v, 0}, func(r *Reader) {}},
		"truncated varint":   {[]byte{v, 0x80}, func(r *Reader) { r.Uvarint() }},
		"non-minimal varint": {[]byte{v, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"varint overflow":    {[]byte{v, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"bool byte 2":        {[]byte{v, 2}, func(r *Reader) { r.Bool() }},
		"short float":        {[]byte{v, 1, 2, 3}, func(r *Reader) { r.Float64() }},
		"uint32 overflow":    {AppendUvarint([]byte{v}, math.MaxUint32+1), func(r *Reader) { r.Uint32() }},
		"int32 overflow":     {AppendVarint([]byte{v}, math.MaxInt32+1), func(r *Reader) { r.Int32() }},
		"string past end":    {[]byte{v, 5, 'a'}, func(r *Reader) { _ = r.String() }},
		"huge count":         {AppendUvarint([]byte{v}, 1<<40), func(r *Reader) { r.Strings() }},
		"map count vs size":  {[]byte{v, 2, 0, 0}, func(r *Reader) { r.StringMap() }},
		"map keys unsorted": {
			AppendString(AppendString(AppendString(AppendString([]byte{v, 2}, "b"), ""), "a"), ""),
			func(r *Reader) { r.StringMap() },
		},
		"map key duplicated": {
			AppendString(AppendString(AppendString(AppendString([]byte{v, 2}, "a"), ""), "a"), ""),
			func(r *Reader) { r.StringMap() },
		},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		if err := r.Finish(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestCountChecksRemaining: a count is bounded by the remaining input
// divided by the element's minimum size.
func TestCountChecksRemaining(t *testing.T) {
	in := []byte{Version, 3, 0, 0, 0, 0, 0, 0}
	r := NewReader(in)
	if n := r.Count(2); n != 3 || r.Err() != nil {
		t.Fatalf("Count(2) over 6 bytes = %d, %v; want 3", n, r.Err())
	}
	r = NewReader(in)
	if n := r.Count(3); n != 0 || !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Count(3) over 6 bytes = %d, %v; want rejection", n, r.Err())
	}
}

// TestStickyError: after the first failure every read returns a zero value
// and Finish reports that first failure.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{Version, 2, 0x01})
	if r.Bool() {
		t.Fatal("bad bool read as true")
	}
	first := r.Err()
	if r.Uvarint() != 0 || r.String() != "" || r.Bytes() != nil {
		t.Fatal("reads after a failure returned data")
	}
	r.Failf("later")
	if err := r.Finish(); err != first || err == nil {
		t.Fatalf("Finish = %v, want the first failure %v", err, first)
	}
}
