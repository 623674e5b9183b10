package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"crdbserverless"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/timeutil"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales the tables: 1 is the benchmark; tests run a fraction,
	// which also waives oltp-txn's floor on background LSM work.
	size float64
	// cpuProfile and memProfile, when set, name files for a CPU profile of
	// the measured window and a heap profile taken at its end.
	cpuProfile, memProfile string
}

// deployment is one running system under test.
type deployment struct {
	srv   *crdbserverless.Serverless
	clock timeutil.Clock
}

func newDeployment() (*deployment, error) {
	srv, err := crdbserverless.New(crdbserverless.Options{})
	if err != nil {
		return nil, fmt.Errorf("start deployment: %w", err)
	}
	return &deployment{srv: srv, clock: timeutil.NewRealClock()}, nil
}

// workload is one traffic mix: its data, its clients and its output check.
type workload interface {
	// load creates the schema and rows in a fresh deployment.
	load(ctx context.Context, d *deployment) error
	// worker returns closed-loop client i; traced clients can also take
	// the inner paths.
	worker(ctx context.Context, d *deployment, i int, traced bool) (worker, error)
	// clients is the number of closed-loop clients, each on its own
	// connection and each sending its next statement only after the reply.
	clients() int
	// paths lists the routes a traced run interleaves, outermost first.
	paths() []path
	// primary names the operation kind the latency metrics describe.
	primary() string
	// verify checks the deployment's final state against the model the
	// workers kept of what they wrote.
	verify(ctx context.Context, d *deployment) error
}

// worker is one closed-loop client.
type worker interface {
	// step runs one operation along p. An error means the program returned
	// a wrong answer and ends the run; an operation the program refused or
	// failed is reported in the record instead.
	step(ctx context.Context, p path) (opRecord, error)
	close()
}

// opRecord is one completed operation.
type opRecord struct {
	at      time.Duration // completion time from the start of its phase
	kind    string
	path    path
	ms      float64
	failed  bool
	err     error // why the program refused or failed the operation
	retries int
	// userBytes is row data the operation wrote (payload string bytes
	// plus 8 per INT column), the base of lsm.write_amp.
	userBytes int64
	// send is the operation's time inside the KV sender (viaSession, and
	// the warm repeat of a peeled resume).
	send sendTally
	// resume holds a peeled resume step's parts, in milliseconds.
	resume   resumeParts
	warmMiss bool
}

func (r *opRecord) fail(err error) {
	r.failed = true
	r.err = err
}

type resumeParts struct {
	resume, lookup, connect, first, warm, exec float64
}

// phase is the measured time of one kind: its operations, with completion
// times counted from the phase's own start, and its counter deltas.
type phase struct {
	dur  time.Duration
	recs []opRecord
	work counters
}

// extend appends a later stretch of measured time to ph.
func (ph *phase) extend(next phase) {
	for _, r := range next.recs {
		r.at += ph.dur
		ph.recs = append(ph.recs, r)
	}
	ph.dur += next.dur
	ph.work = ph.work.plus(next.work, 1)
}

// runPhase drives every worker in a closed loop for dur. choose picks the
// path of each worker's n-th operation in the phase.
// operation's path from the worker's own generator.
func runPhase(ctx context.Context, d *deployment, workers []worker, dur time.Duration, choose func(n int) path) (phase, error) {
	before := snapshot(d.srv)
	ph := phase{dur: dur}
	start := d.clock.Now()
	deadline := start.Add(dur)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	per := make([][]opRecord, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		i, w := i, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && d.clock.Now().Before(deadline) {
				rec, err := w.step(ctx, choose(len(per[i])))
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				rec.at = d.clock.Since(start)
				per[i] = append(per[i], rec)
			}
		}()
	}
	wg.Wait()
	ph.work = snapshot(d.srv).plus(before, -1)
	for _, rs := range per {
		ph.recs = append(ph.recs, rs...)
	}
	sort.SliceStable(ph.recs, func(a, b int) bool { return ph.recs[a].at < ph.recs[b].at })
	return ph, errors.Join(errs...)
}

// background runs fn every interval until stop is closed, then returns
// once its goroutine has exited.
type background struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func every(clock timeutil.Clock, interval time.Duration, fn func()) *background {
	b := &background{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		for {
			select {
			case <-b.stop:
				return
			case <-clock.After(interval):
				fn()
			}
		}
	}()
	return b
}

func (b *background) halt() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}

// tickInterval is the cadence Serverless.Tick documents: range maintenance
// and every region's autoscaler run as deployed.
const tickInterval = 3 * time.Second

// outcome is everything a run measured.
type outcome struct {
	setup       []float64 // seconds, one per build
	untraced    phase     // the whole window, or its untraced slices
	traced      *phase    // the traced slices of a traced run
	l0Max       int
	tickErrs    int
	verifyErr   error
	spaceStored int64
	spaceLive   int64
	nodes       int
}

// oltpClients is the client count of every workload but olap-scan: one per
// core of the two-core reference box.
const oltpClients = 2

// The deployment is built and loaded at least minSetupReps times, and
// cheap builds repeat until they add up to minSetup, at most maxSetupReps
// times: a build of a few tens of milliseconds needs more of them for a
// steady median. The last build is the one measured.
const (
	minSetupReps = 3
	maxSetupReps = 15
	minSetup     = time.Second
)

// execute builds the deployment, warms it, measures, and verifies.
func execute(ctx context.Context, cfg config, wl func() workload) (*outcome, error) {
	out := &outcome{}
	var d *deployment
	var w workload
	spent := 0.0
	for rep := 0; rep < minSetupReps || (spent < minSetup.Seconds() && rep < maxSetupReps); rep++ {
		if d != nil {
			d.srv.Close()
			runtime.GC() // drop the previous build before timing the next
		}
		clock := timeutil.NewRealClock()
		start := clock.Now()
		var err error
		if d, err = newDeployment(); err != nil {
			return nil, err
		}
		w = wl()
		if err := w.load(ctx, d); err != nil {
			d.srv.Close()
			return nil, err
		}
		took := clock.Since(start).Seconds()
		out.setup = append(out.setup, took)
		spent += took
	}
	defer d.srv.Close()
	out.nodes = len(d.srv.Cluster().Nodes())

	var tickMu sync.Mutex
	ticker := every(d.clock, tickInterval, func() {
		if err := d.srv.Tick(ctx); err != nil {
			tickMu.Lock()
			out.tickErrs++
			tickMu.Unlock()
		}
	})
	defer ticker.halt()

	workers := make([]worker, w.clients())
	for i := range workers {
		wk, err := w.worker(ctx, d, i, cfg.trace)
		if err != nil {
			return nil, err
		}
		defer wk.close()
		workers[i] = wk
	}
	paths := w.paths()
	proxyOnly := func(int) path { return viaProxy }
	// A traced client takes the paths in turn, one operation each.
	mixed := func(n int) path { return paths[n%len(paths)] }

	// Warm every path the run will take: descriptor caches, the warm pool
	// after the first resumes, and the runtime's heap size.
	warmChoose := proxyOnly
	if cfg.trace {
		warmChoose = mixed
	}
	if _, err := runPhase(ctx, d, workers, warmup, warmChoose); err != nil {
		return out, fmt.Errorf("warm-up: %w", err)
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	stopProfile, err := startCPUProfile(cfg.cpuProfile)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.untraced, err = runPhase(ctx, d, workers, total, proxyOnly)
	} else {
		var mu sync.Mutex
		sampler := every(d.clock, 50*time.Millisecond, func() {
			n := l0FilesMax(d.srv)
			mu.Lock()
			if n > out.l0Max {
				out.l0Max = n
			}
			mu.Unlock()
		})
		// Untraced and traced slices alternate, so that anything drifting
		// over the run (growing tables, heap, background work) weighs on
		// both kinds of slice alike and their difference is the tracing
		// overhead.
		out.traced = &phase{}
		for i := 0; err == nil && time.Duration(i)*traceSlice < total; i++ {
			slice := total - time.Duration(i)*traceSlice
			if slice > traceSlice {
				slice = traceSlice
			}
			var ph phase
			if i%2 == 0 {
				ph, err = runPhase(ctx, d, workers, slice, proxyOnly)
				out.untraced.extend(ph)
			} else {
				ph, err = runPhase(ctx, d, workers, slice, mixed)
				out.traced.extend(ph)
			}
		}
		sampler.halt()
	}
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if cfg.memProfile != "" && err == nil {
		err = writeHeapProfile(cfg.memProfile)
	}
	if err != nil {
		return out, err
	}
	ticker.halt() // verify reads a quiet deployment
	out.verifyErr = w.verify(ctx, d)
	if cfg.trace {
		out.spaceStored = storedBytes(d.srv)
		out.spaceLive, err = liveBytes(d.srv)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// startCPUProfile starts profiling into name, if set, and returns the stop
// function.
func startCPUProfile(name string) (func() error, error) {
	if name == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes the live heap, after a collection, to name.
func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSlice is the length of the alternating untraced and traced
// stretches of a traced run.
const traceSlice = time.Second

// warmup is how long every client runs before measuring starts.
const warmup = 500 * time.Millisecond

// liveBytes is the logical data every tenant stores, times the replication
// factor: what a space amplification of 1 would keep on the nodes.
func liveBytes(srv *crdbserverless.Serverless) (int64, error) {
	ids := []keys.TenantID{keys.SystemTenantID}
	for _, t := range srv.Registry().List() {
		ids = append(ids, t.ID)
	}
	var total int64
	for _, id := range ids {
		n, err := srv.Cluster().TenantStorageBytes(id)
		if err != nil {
			return 0, err
		}
		total += n
	}
	rf := 1
	if ds := srv.Cluster().Descriptors(); len(ds) > 0 {
		rf = len(ds[0].Replicas)
	}
	return total * int64(rf), nil
}
