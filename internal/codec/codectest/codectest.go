// Package codectest holds the decoder contract every codec fuzz target
// checks. It is imported only by tests.
package codectest

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"crdbserverless/internal/codec"
)

// A decoder may allocate at most allocPerInputByte bytes per input byte,
// plus allocSlack. The densest decoded form is a sql.Datum: 56 bytes from
// a one-byte encoding. A count trusted before it is checked against the
// input allocates far more.
const (
	allocPerInputByte = 64
	allocSlack        = 64 << 10
)

// hugeCount is a count no input can back: 2^40.
const hugeCount = 1 << 40

// WithCount returns the version byte, then prefix, then hugeCount as a
// uvarint — an input whose count field, at the position prefix leads to,
// claims far more elements than the input holds.
func WithCount(prefix ...byte) []byte {
	b := append(codec.AppendVersion(nil), prefix...)
	return binary.AppendUvarint(b, hugeCount)
}

// Fuzz registers a fuzz target for one decoder. Its corpus is seeded with
// the encodings of seeds and with hostile. The target asserts, for every
// input, that:
//
//   - decode returns without panicking;
//   - if decode succeeds, encode reproduces the input byte for byte;
//   - decode allocates no more than a small multiple of the input size.
//
// Before fuzzing it also asserts that every seed decodes and re-encodes to
// the same bytes, and that each hostile input (see WithCount) is rejected
// within the same allocation bound.
func Fuzz[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte, hostile [][]byte, seeds ...T) {
	f.Helper()
	for _, s := range seeds {
		b := encode(s)
		v, err := decode(b)
		if err != nil {
			f.Fatalf("seed %x does not decode: %v", b, err)
		}
		if got := encode(v); !bytes.Equal(got, b) {
			f.Fatalf("seed re-encodes differently:\n in  %x\n out %x", b, got)
		}
		f.Add(b)
	}
	for _, h := range hostile {
		if _, err := decode(h); err == nil {
			f.Fatalf("hostile input %x decoded", h)
		}
		if n, ok := allocWithin(allocBound(h), func() { _, _ = decode(h) }); !ok {
			f.Fatalf("rejecting hostile input %x allocated %d bytes", h, n)
		}
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v T
		var err error
		if n, ok := allocWithin(allocBound(data), func() { v, err = decode(data) }); !ok {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		if got := encode(v); !bytes.Equal(got, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, got)
		}
	})
}

func allocBound(data []byte) uint64 {
	return uint64(allocPerInputByte*len(data) + allocSlack)
}

// allocWithin reports whether fn allocates at most bound bytes on the heap.
// The measurement is process-wide, so goroutines left running by earlier
// tests can inflate it; fn fails only if three runs in a row exceed the
// bound. It returns the smallest measurement.
func allocWithin(bound uint64, fn func()) (uint64, bool) {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n < least {
			least = n
		}
		if least <= bound {
			return least, true
		}
	}
	return least, false
}
