package main

import (
	"fmt"
	"io"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of a run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd and perLayer list every metric name with its unit, in the order
// BENCHMARK.json records them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"proxy.self_us", "us"},
	{"server.self_us", "us"},
	{"sql.self_us", "us"},
	{"kvserver.send_us", "us"},
	{"sql.kv_batches_per_op", "count"},
	{"txn.commit_us", "us"},
	{"txn.client_retries_per_txn", "count"},
	{"kvserver.modeled_cpu_us_per_op", "us"},
	{"kvserver.real_to_modeled_cpu", "ratio"},
	{"raftlite.commit_batch_mean", "count"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.l0_files_max", "count"},
	{"lsm.write_amp", "ratio"},
	{"lsm.space_amp", "ratio"},
	{"lsm.tables_probed_per_op", "count"},
	{"lsm.cache_lookups_per_op", "count"},
	{"core.resume_us", "us"},
	{"orchestrator.lookup_us", "us"},
	{"server.connect_us", "us"},
	{"sql.first_query_us", "us"},
	{"orchestrator.warm_pool_misses", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.e2e_p50_us", "us"},
	{"trace.overhead_pct", "%"},
}

// p99Window is the fixed window the windowed p99 is taken over, and
// minPerWindow the fewest samples a window needs to count.
const (
	p99Window    = time.Second
	minPerWindow = 20
)

// latency is a summary of one operation kind's completed samples.
type latency struct {
	n        int
	p50, p99 float64
	windows  int
}

func summarize(recs []opRecord, kind string, p path) latency {
	var ms []float64
	var ss []sample
	for _, r := range recs {
		if r.kind == kind && r.path == p && !r.failed {
			ms = append(ms, r.ms)
			ss = append(ss, sample{at: r.at, ms: r.ms})
		}
	}
	l := latency{n: len(ms), p50: median(ms)}
	l.p99, l.windows = windowedP99(ss, p99Window, minPerWindow)
	return l
}

// completed counts the phase's operations that did not fail.
func completed(recs []opRecord) (ok, failed int) {
	for _, r := range recs {
		if r.failed {
			failed++
		} else {
			ok++
		}
	}
	return ok, failed
}

// kindsOf lists the operation kinds a workload reports, primary first.
func kindsOf(primary string) []string {
	if primary == "read" {
		return []string{"read", "write"}
	}
	return []string{primary}
}

// endToEndMetrics computes the untraced run's metrics and prints the
// human-readable lines, each percentile with its sample count.
func endToEndMetrics(w io.Writer, o *outcome, primary string) map[string]metricValue {
	ph := o.untraced
	ok, failed := completed(ph.recs)
	for _, k := range kindsOf(primary) {
		l := summarize(ph.recs, k, viaProxy)
		fmt.Fprintf(w, "%s_p50_ms %.4f ms (n=%d)\n", k, l.p50, l.n)
		fmt.Fprintf(w, "%s_p99_ms %.4f ms (median of %d one-second windows' p99, n=%d)\n", k, l.p99, l.windows, l.n)
	}
	prim := summarize(ph.recs, primary, viaProxy)
	cpuMs := float64(ph.work.cpu) / 1e6
	m := map[string]metricValue{
		"setup_s":       {median(o.setup), "s"},
		"p50_ms":        {prim.p50, "ms"},
		"p99_ms":        {prim.p99, "ms"},
		"cpu_ms_per_op": {ratio(cpuMs, float64(ok)), "ms"},
		"rss_peak_mb":   {peakRSSMiB(), "MiB"},
	}
	fmt.Fprintf(w, "setup_s %.4f s (median of %d builds: %v)\n", m["setup_s"].Value, len(o.setup), roundAll(o.setup))
	fmt.Fprintf(w, "cpu_ms_per_op %.4f ms (%.1f ms process CPU over %d completed ops)\n", m["cpu_ms_per_op"].Value, cpuMs, ok)
	fmt.Fprintf(w, "failed_ratio %.6f (%d of %d attempted)\n", ratio(float64(failed), float64(ok+failed)), failed, ok+failed)
	fmt.Fprintf(w, "rss_peak_mb %.1f MiB\n", m["rss_peak_mb"].Value)
	return m
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// perLayerMetrics computes the traced run's layer breakdown. The counter
// ratios come from the untraced slices, the path the user takes; the self
// times from the traced slices; background-work counts from both.
func perLayerMetrics(w io.Writer, o *outcome, primary string) map[string]metricValue {
	a, b := o.untraced, *o.traced
	okA, _ := completed(a.recs)
	opsA := float64(okA)
	m := map[string]metricValue{}
	set := func(name string, v float64) {
		for _, l := range perLayer {
			if l.name == name {
				m[name] = metricValue{v, l.unit}
				return
			}
		}
		panic("e2ebench: unlisted per-layer metric " + name)
	}

	// Self times: medians of the primary operation along nested paths.
	med := func(p path, f func(opRecord) float64) float64 {
		var xs []float64
		for _, r := range b.recs {
			if r.kind == primary && r.path == p && !r.failed {
				xs = append(xs, f(r))
			}
		}
		return median(xs) * 1000 // ms → µs
	}
	total := func(r opRecord) float64 { return r.ms }
	outer := med(viaProxy, total)
	var stack []float64
	var names []string
	if primary == "resume" {
		part := func(f func(resumeParts) float64) float64 {
			return med(viaPeeled, func(r opRecord) float64 { return f(r.resume) })
		}
		resume := part(func(p resumeParts) float64 { return p.resume })
		lookup := part(func(p resumeParts) float64 { return p.lookup })
		connect := part(func(p resumeParts) float64 { return p.connect })
		first := part(func(p resumeParts) float64 { return p.first })
		warm := part(func(p resumeParts) float64 { return p.warm })
		exec := part(func(p resumeParts) float64 { return p.exec })
		send := med(viaPeeled, func(r opRecord) float64 { return r.send.sendMs })
		set("proxy.self_us", outer-(resume+lookup+connect+first))
		set("core.resume_us", resume)
		set("orchestrator.lookup_us", lookup)
		set("server.connect_us", connect)
		set("sql.first_query_us", first-warm)
		stack, names = []float64{warm, exec, send}, []string{"server.self_us", "sql.self_us", "kvserver.send_us"}
		fmt.Fprintf(w, "peel resume: proxy %.1f us = resume %.1f + lookup %.1f + connect %.1f + first query %.1f + proxy self; first query = warm repeat %.1f + first-query extra\n",
			outer, resume, lookup, connect, first, warm)
	} else {
		for _, n := range []string{"core.resume_us", "orchestrator.lookup_us", "server.connect_us", "sql.first_query_us"} {
			set(n, 0)
		}
		stack = []float64{outer, med(viaWire, total), med(viaSession, total), med(viaSession, func(r opRecord) float64 { return r.send.sendMs })}
		names = []string{"proxy.self_us", "server.self_us", "sql.self_us", "kvserver.send_us"}
		fmt.Fprintf(w, "peel %s: proxy %.1f us, direct wire %.1f us, in-process Session.Execute %.1f us, inside DistSender.Send %.1f us\n",
			primary, stack[0], stack[1], stack[2], stack[3])
	}
	for i, v := range peel(stack) {
		set(names[i], v)
	}
	sum := 0.0
	for _, n := range []string{"proxy.self_us", "server.self_us", "sql.self_us", "kvserver.send_us", "core.resume_us", "orchestrator.lookup_us", "server.connect_us", "sql.first_query_us"} {
		sum += m[n].Value
	}
	fmt.Fprintf(w, "layer self times sum to %.1f us; traced end-to-end median %.1f us\n", sum, outer)

	var sends, sessionOps float64
	var commits []float64
	var retries, txns float64
	for _, r := range b.recs {
		if (r.path == viaSession || r.path == viaPeeled) && r.kind == primary && !r.failed {
			sends += float64(r.send.sends)
			sessionOps++
		}
		if r.send.commits > 0 && !r.failed {
			commits = append(commits, r.send.commitMs*1000)
		}
	}
	for _, r := range append(append([]opRecord(nil), a.recs...), b.recs...) {
		if r.kind == "txn" {
			retries += float64(r.retries)
			txns++
		}
	}
	set("sql.kv_batches_per_op", ratio(sends, sessionOps))
	set("txn.commit_us", median(commits))
	set("txn.client_retries_per_txn", ratio(retries, txns))

	// Counter ratios over the untraced slices.
	aw := a.work
	modeled := float64(aw.modeledCPU) / 1e3 // µs
	real := float64(aw.cpu) / 1e3
	set("kvserver.modeled_cpu_us_per_op", ratio(modeled, opsA))
	set("kvserver.real_to_modeled_cpu", ratio(real, modeled))
	set("raftlite.commit_batch_mean", ratio(float64(aw.raftEntries), float64(aw.raftBatches)))
	set("lsm.tables_probed_per_op", ratio(float64(aw.tablesProbed), opsA))
	set("lsm.cache_lookups_per_op", ratio(float64(aw.cacheLookups), opsA))
	set("runtime.allocs_per_op", ratio(float64(aw.allocObjs), opsA))
	set("runtime.alloc_kb_per_op", ratio(float64(aw.allocBytes)/1024, opsA))
	set("runtime.gc_cpu_fraction", ratio(aw.gcCPU, aw.totalCPU))

	// Background work over the whole window.
	bg := a.work.plus(b.work, 1)
	var userBytes int64
	misses := 0
	for _, r := range append(append([]opRecord(nil), a.recs...), b.recs...) {
		userBytes += r.userBytes
		if r.warmMiss {
			misses++
		}
	}
	set("lsm.flushes", float64(bg.flushes))
	set("lsm.compactions", float64(bg.compactions))
	set("lsm.l0_files_max", float64(o.l0Max))
	set("lsm.write_amp", ratio(float64(bg.walBytes+bg.flushed+bg.compacted), float64(userBytes)))
	set("lsm.space_amp", ratio(float64(o.spaceStored), float64(o.spaceLive)))
	set("orchestrator.warm_pool_misses", float64(misses))

	untracedP50 := summarize(a.recs, primary, viaProxy).p50 * 1000
	set("trace.e2e_p50_us", outer)
	set("trace.overhead_pct", ratio(outer-untracedP50, untracedP50)*100)
	fmt.Fprintf(w, "trace overhead: untraced slices' median %.1f us, traced slices' proxy-path median %.1f us\n", untracedP50, outer)
	fmt.Fprintf(w, "lsm: %d flushes, %d compactions over %d nodes; write amp %.2f over %d user bytes\n",
		bg.flushes, bg.compactions, o.nodes, m["lsm.write_amp"].Value, userBytes)
	return m
}
