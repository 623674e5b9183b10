package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p·n samples at or below it. xs need not be
// sorted and is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// sample is one timed operation: when it completed, relative to the start
// of the measured window, and how long it took in milliseconds.
type sample struct {
	at time.Duration
	ms float64
}

// windowedP99 splits samples into consecutive fixed windows by completion
// time, takes the p99 of every window holding at least minPerWindow samples,
// and returns the median of those per-window p99s with the number of windows
// used. A single stall lands in one window and moves the median of the
// windows far less than it moves a plain p99 over the whole run.
func windowedP99(samples []sample, window time.Duration, minPerWindow int) (float64, int) {
	if window <= 0 || len(samples) == 0 {
		return 0, 0
	}
	buckets := map[int64][]float64{}
	for _, s := range samples {
		i := int64(s.at / window)
		buckets[i] = append(buckets[i], s.ms)
	}
	idx := make([]int64, 0, len(buckets))
	for i := range buckets {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	var p99s []float64
	for _, i := range idx {
		if b := buckets[i]; len(b) >= minPerWindow {
			p99s = append(p99s, percentile(b, 0.99))
		}
	}
	return median(p99s), len(p99s)
}

// peel turns the medians of one operation timed along nested paths into
// per-layer self times. stack lists the medians outermost first, each path
// covering strictly less of the stack than the one before it (through the
// proxy, straight to the SQL node's wire listener, in-process
// Session.Execute, time inside the KV sender). Layer i's self time is
// stack[i] - stack[i+1]; the innermost layer keeps its whole median. The
// self times therefore sum to stack[0], the outermost median.
func peel(stack []float64) []float64 {
	out := make([]float64, len(stack))
	for i, v := range stack {
		out[i] = v
		if i+1 < len(stack) {
			out[i] -= stack[i+1]
		}
	}
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// entered reports zero work, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
