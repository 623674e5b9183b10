// Command e2ebench drives SQL workloads through a real crdbserverless
// deployment on the real clock and reports end-to-end latency, CPU and
// memory, or — with --trace 1 — a layer-by-layer breakdown of where the time
// went. See README.md.
//
//	go run . --workload oltp-point --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"crdbserverless/internal/timeutil"
)

func main() {
	cfg := config{size: 1}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same statements")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the measured window to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile taken at the end of the measured window to this file")
	flag.Parse()
	cfg.trace = traceFlag == 1

	// A hung deployment must not outlive the run's time budget.
	go func() {
		<-timeutil.NewRealClock().After(170 * time.Second)
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
		os.Exit(3)
	}()

	var rep *report
	err := errors.New("--trace must be 0 or 1")
	if traceFlag == 0 || traceFlag == 1 {
		rep, err = run(context.Background(), cfg, os.Stdout)
	}
	if rep != nil {
		line, jerr := json.Marshal(rep)
		if jerr != nil {
			err = errors.Join(err, jerr)
		} else {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its final report. Lines
// describing the environment and every measured number with its sample
// count go to w first. A wrong answer from the program yields a report
// with Correct false and an error.
func run(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	probe, err := newWorkload(cfg.workload, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	fmt.Fprintf(w, "env go=%s GOMAXPROCS=%d NumCPU=%d GOOS=%s GOARCH=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%g trace=%t clients=%d (closed loop, one connection each)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, probe.clients())
	fmt.Fprintln(w, "deployment crdbserverless.New defaults: 1 region, 3 KV nodes, warm pool 4, "+
		"volatile LSM engines (no WAL fsync; WAL bytes counted as framed), 4 MiB memtables, Tick every 3s")

	o, err := execute(ctx, cfg, func() workload {
		wl, _ := newWorkload(cfg.workload, cfg) // the name was validated above
		return wl
	})
	if o == nil {
		return nil, err
	}
	primary := probe.primary()
	ok, failed := completed(o.untraced.recs)
	if o.traced != nil {
		tok, tfailed := completed(o.traced.recs)
		ok, failed = ok+tok, failed+tfailed
	}
	for _, ph := range []*phase{&o.untraced, o.traced} {
		if ph == nil {
			continue
		}
		fmt.Fprintf(w, "samples%s\n", sampleCounts(ph.recs))
		for _, r := range ph.recs {
			if r.failed {
				fmt.Fprintf(w, "first failure %s/%s: %v\n", r.kind, r.path, r.err)
				break
			}
		}
	}
	rep := &report{Correct: err == nil, Attempted: ok + failed, Failed: failed}
	if rep.Attempted == 0 {
		rep.Attempted = 1 // a run that completed nothing still attempted
		rep.Failed = 1
	}
	if err == nil && o.verifyErr != nil {
		err = fmt.Errorf("final state check: %w", o.verifyErr)
		rep.Correct = false
	}
	if err == nil && o.tickErrs > 0 {
		err = fmt.Errorf("%d Serverless.Tick calls failed", o.tickErrs)
		rep.Correct = false
	}
	if err == nil && cfg.workload == "oltp-txn" && cfg.size >= 1 {
		flushes, compactions := backgroundWork(o)
		fmt.Fprintf(w, "background work in window: %d flushes, %d compactions over %d nodes\n", flushes, compactions, o.nodes)
		if flushes < int64(2*o.nodes) || compactions < 1 {
			err = fmt.Errorf("oltp-txn window held %d flushes and %d compactions; need >= %d and >= 1", flushes, compactions, 2*o.nodes)
			rep.Correct = false
		}
	}
	if cfg.trace {
		if o.traced == nil {
			return rep, err
		}
		rep.Metrics = perLayerMetrics(w, o, primary)
	} else {
		rep.Metrics = endToEndMetrics(w, o, primary)
	}
	return rep, err
}

// backgroundWork counts the flushes and compactions inside the measured
// window.
func backgroundWork(o *outcome) (flushes, compactions int64) {
	w := o.untraced.work
	if o.traced != nil {
		w = w.plus(o.traced.work, 1)
	}
	return w.flushes, w.compactions
}

// sampleCounts renders per-kind, per-path completed sample counts.
func sampleCounts(recs []opRecord) string {
	counts := map[string]int{}
	var order []string
	for _, r := range recs {
		if r.failed {
			continue
		}
		k := r.kind + "/" + r.path.String()
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	out := ""
	for _, k := range order {
		out += fmt.Sprintf(" %s=%d", k, counts[k])
	}
	return out
}
