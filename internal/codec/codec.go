// Package codec is the one binary serialization every durable and network
// value in the repository goes through: SQL row values, wire frames, raft
// commands, pushed-down row filters, table descriptors, serialized
// sessions, tenant records, and replica snapshots.
//
// Encoders append into caller-owned buffers; a Reader decodes without
// reflection, checking every length against the bytes that remain. The
// layout of a value is fixed by the code that writes it — nothing
// self-describing is shipped — so there is no type description to
// re-send or recompile per message.
//
// Layout rules (see DESIGN.md §11):
//
//   - Every encoded value starts with the Version byte.
//   - Unsigned integers are uvarints and signed integers zig-zag varints,
//     both in their shortest form. Floats are 8 little-endian bytes of
//     their IEEE-754 bits. Bools are one byte, 0 or 1.
//   - Byte strings, strings, and lists carry a uvarint count prefix. A
//     count is checked against the remaining input before anything is
//     allocated, so a hostile count cannot force a large allocation.
//   - Empty byte strings, lists, and maps decode as nil.
//   - Maps are written in ascending key order and read back only in
//     strictly ascending order.
//
// Decoding is strict: a non-minimal varint, a bool byte other than 0 or 1,
// an out-of-order map key, or trailing bytes are all rejected. Every input
// that decodes therefore re-encodes to the same bytes.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Version is the format version byte every encoded value starts with.
const Version byte = 1

// ErrMalformed reports input that is not a valid encoding: a wrong version
// byte, truncation, a count larger than the input, a non-canonical form,
// or trailing bytes.
var ErrMalformed = errors.New("codec: malformed input")

// AppendVersion starts an encoded value.
func AppendVersion(b []byte) []byte { return append(b, Version) }

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the 8 little-endian bytes of v's IEEE-754 bits.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(b, v []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(v))), v...)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendStrings appends a count-prefixed list of strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendInts appends a count-prefixed list of ints.
func AppendInts(b []byte, vs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// AppendStringMap appends a count-prefixed map in ascending key order, so
// equal maps always encode to equal bytes.
func AppendStringMap(b []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendString(b, k)
		b = AppendString(b, m[k])
	}
	return b
}

// Reader decodes one encoded value. The first failure is sticky: later
// reads return zero values, and Finish reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b positioned after its version byte. A
// missing or unknown version byte is reported by Finish.
func NewReader(b []byte) Reader {
	if len(b) == 0 {
		return Reader{err: fmt.Errorf("%w: empty input", ErrMalformed)}
	}
	if b[0] != Version {
		return Reader{err: fmt.Errorf("%w: format version %d, want %d", ErrMalformed, b[0], Version)}
	}
	return Reader{b: b[1:]}
}

// Failf records a decoding failure found by the caller, such as an
// out-of-range enum. Only the first failure is kept.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		r.b = nil
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Finish returns the first failure, or an error if input remains unread.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.Failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Failf("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads a bool byte.
func (r *Reader) Bool() bool {
	switch v := r.Byte(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Failf("bool byte %d", v)
		return false
	}
}

// Uvarint reads a uvarint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.Failf("bad varint")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.Failf("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint in its shortest form.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Failf("int %d out of range", v)
		return 0
	}
	return int(v)
}

// Int32 reads a varint that must fit an int32.
func (r *Reader) Int32() int32 {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Failf("int32 %d out of range", v)
		return 0
	}
	return int32(v)
}

// Uint32 reads a uvarint that must fit a uint32.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Failf("uint32 %d out of range", v)
		return 0
	}
	return uint32(v)
}

// Float64 reads 8 little-endian bytes of IEEE-754 bits.
func (r *Reader) Float64() float64 {
	if len(r.b) < 8 {
		r.Failf("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads a list length and checks it against the remaining input:
// each element occupies at least minSize bytes, so a count that could not
// fit is rejected before the caller allocates for it.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.Failf("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes without copying.
func (r *Reader) take() []byte {
	n := r.Count(1)
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty), so the result never aliases the input.
func (r *Reader) Bytes() []byte {
	v := r.take()
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.take()) }

// Strings reads a count-prefixed list of strings (nil when empty).
func (r *Reader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

// Ints reads a count-prefixed list of ints (nil when empty).
func (r *Reader) Ints() []int {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// StringMap reads a map written by AppendStringMap (nil when empty). Keys
// must be strictly ascending.
func (r *Reader) StringMap() map[string]string {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	var prev string
	for i := 0; i < n && r.err == nil; i++ {
		k := r.String()
		if i > 0 && k <= prev {
			r.Failf("map key %q out of order", k)
			return nil
		}
		m[k] = r.String()
		prev = k
	}
	return m
}
