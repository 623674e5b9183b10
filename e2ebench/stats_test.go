package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, unsorted
	for _, c := range []struct {
		p, want float64
	}{
		{0.5, 5},   // rank ceil(5) = 5
		{0.9, 9},   // rank 9
		{0.95, 10}, // rank ceil(9.5) = 10
		{0.99, 10},
		{0.01, 1},
		{1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Errorf("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	// Nearest rank on 200 samples: p99 is the 198th smallest, leaving two
	// above it.
	var big []float64
	for i := 1; i <= 200; i++ {
		big = append(big, float64(i))
	}
	if got := percentile(big, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
}

func TestWindowedP99(t *testing.T) {
	// Three one-second windows of 100 samples each. Window 0 holds 1..100
	// (p99 = 99), window 1 holds 101..200 (p99 = 199), and window 2 holds
	// 1..100 again plus one stall, 1000 ms, replacing its top sample
	// (p99 = 99). The stall moves a plain p99 but not the median of the
	// windows' p99s: median(99, 199, 99) = 99.
	var ss []sample
	for w := 0; w < 3; w++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 1 {
				v += 100
			}
			if w == 2 && i == 100 {
				v = 1000
			}
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			ss = append(ss, sample{at: at, ms: v})
		}
	}
	got, n := windowedP99(ss, time.Second, 20)
	if got != 99 || n != 3 {
		t.Errorf("windowedP99 = %v over %d windows, want 99 over 3", got, n)
	}
	// A trailing window with too few samples is left out.
	ss = append(ss, sample{at: 3*time.Second + time.Millisecond, ms: 5000})
	if got, n := windowedP99(ss, time.Second, 20); got != 99 || n != 3 {
		t.Errorf("windowedP99 with a sparse tail window = %v over %d, want 99 over 3", got, n)
	}
	// Four windows: the median is the nearest-rank median, the second
	// smallest of {99, 99, 199, 249}.
	for i := 1; i <= 100; i++ {
		ss = append(ss, sample{at: 4*time.Second + time.Duration(i)*time.Millisecond, ms: float64(i) + 150})
	}
	if got, n := windowedP99(ss, time.Second, 20); got != 99 || n != 4 {
		t.Errorf("windowedP99 over four windows = %v over %d, want 99 over 4", got, n)
	}
	if got, n := windowedP99(nil, time.Second, 20); got != 0 || n != 0 {
		t.Errorf("windowedP99(nil) = %v, %d", got, n)
	}
}

func TestPeel(t *testing.T) {
	// Through the proxy 430 µs, direct wire 308, in-process 134, inside
	// the KV sender 80: proxy 122, server 174, sql 54, kv 80.
	got := peel([]float64{430, 308, 134, 80})
	want := []float64{122, 174, 54, 80}
	sum := 0.0
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("peel[%d] = %v, want %v", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 430 {
		t.Errorf("self times sum to %v, want the outermost median 430", sum)
	}
	// A layer timed slower inside than out (noise) reads negative rather
	// than being clamped, so the self times still sum to the outer time.
	if got := peel([]float64{10, 11, 4}); got[0] != -1 || got[1] != 7 || got[2] != 4 {
		t.Errorf("peel with an inversion = %v, want [-1 7 4]", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}

func TestPayloadDeterministic(t *testing.T) {
	a := payload(7, 42, 3, 900)
	if len(a) != 900 || a != payload(7, 42, 3, 900) {
		t.Fatalf("payload is not a pure function of its inputs")
	}
	if a == payload(7, 42, 4, 900) || a == payload(8, 42, 3, 900) {
		t.Errorf("payload ignores the version or the seed")
	}
}
