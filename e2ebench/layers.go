package main

import (
	"context"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"crdbserverless"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/kvserver"
	"crdbserverless/internal/metric"
	"crdbserverless/internal/server"
	"crdbserverless/internal/sql"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/txn"
)

// timedSender times every KV batch an in-process SQL stack sends. It wraps
// the DistSender directly, so its time is kvserver.send_us; the batches that
// carry intent resolution are the transaction's commit (txn.commit_us).
type timedSender struct {
	inner txn.Sender
	clock timeutil.Clock

	sends       atomic.Int64
	sendNanos   atomic.Int64
	commits     atomic.Int64
	commitNanos atomic.Int64
}

func (t *timedSender) Send(ctx context.Context, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	start := t.clock.Now()
	resp, err := t.inner.Send(ctx, ba)
	d := int64(t.clock.Since(start))
	t.sends.Add(1)
	t.sendNanos.Add(d)
	if resolvesIntents(ba) {
		t.commits.Add(1)
		t.commitNanos.Add(d)
	}
	return resp, err
}

// sendTally is what one operation spent inside a timedSender.
type sendTally struct {
	sends, commits   int64
	sendMs, commitMs float64
}

// take returns the tally since the last take and resets it.
func (t *timedSender) take() sendTally {
	return sendTally{
		sends:    t.sends.Swap(0),
		commits:  t.commits.Swap(0),
		sendMs:   float64(t.sendNanos.Swap(0)) / 1e6,
		commitMs: float64(t.commitNanos.Swap(0)) / 1e6,
	}
}

func resolvesIntents(ba *kvpb.BatchRequest) bool {
	for _, r := range ba.Requests {
		if r.Method == kvpb.ResolveIntent || r.Method == kvpb.ResolveIntentRange {
			return true
		}
	}
	return false
}

// newTimedSession builds an in-process SQL session for a tenant, composed
// the way server.SQLNode.AssignTenant composes a SQL node's stack — a
// MeteredSender over the tenant's DistSender under the txn coordinator —
// with a timedSender slipped in directly above the DistSender.
func newTimedSession(srv *crdbserverless.Serverless, tenant string, clock timeutil.Clock) (*sql.Session, *timedSender, error) {
	id, err := srv.TenantID(tenant)
	if err != nil {
		return nil, nil, err
	}
	cluster := srv.Cluster()
	ds := kvserver.NewDistSender(cluster, kvserver.Identity{Tenant: id}, kvserver.Config{Obs: srv.Obs()})
	timed := &timedSender{inner: ds, clock: clock}
	coord := txn.NewCoordinator(server.NewMeteredSender(timed), cluster.Clock(), id)
	coord.SetObs(srv.Obs())
	exec := sql.NewExecutor(sql.NewCatalog(coord, id), coord, sql.ExecutorConfig{Obs: srv.Obs()})
	return sql.NewSession(exec, "app"), timed, nil
}

// counters holds every cumulative counter the benchmark reads from outside
// the program — process and runtime accounting, the KV nodes' modeled CPU,
// and the storage and raft counters the deployment exports — as a snapshot
// or as the difference between two.
type counters struct {
	cpu        time.Duration // process user+system CPU
	modeledCPU time.Duration // Σ kvserver.Node.CPUBusy
	allocObjs  int64
	allocBytes int64
	gcCPU      float64 // runtime/metrics estimate, seconds
	totalCPU   float64 // runtime/metrics estimate, seconds

	flushes, compactions         int64
	walBytes, flushed, compacted int64
	tablesProbed, cacheLookups   int64
	raftEntries, raftBatches     int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshot(srv *crdbserverless.Serverless) counters {
	c := counters{cpu: processCPU()}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	c.allocObjs = int64(ms[0].Value.Uint64())
	c.allocBytes = int64(ms[1].Value.Uint64())
	c.gcCPU = ms[2].Value.Float64()
	c.totalCPU = ms[3].Value.Float64()
	for _, n := range srv.Cluster().Nodes() {
		c.modeledCPU += n.CPUBusy()
		m := n.Engine().Metrics()
		c.flushes += m.FlushCount
		c.compactions += m.CompactionCount
		c.walBytes += m.WALBytes
		c.flushed += m.FlushedBytes
		c.compacted += m.CompactedBytes
	}
	// The read-path and raft counters are shared by every node's engine
	// and group, so they are read once from the deployment registry.
	reg := srv.Metrics()
	c.tablesProbed = counterValue(reg, "lsm.tables.probed")
	c.cacheLookups = counterValue(reg, "lsm.cache.block.hits") + counterValue(reg, "lsm.cache.block.misses") +
		counterValue(reg, "lsm.cache.hot.hits") + counterValue(reg, "lsm.cache.hot.misses")
	c.raftEntries = counterValue(reg, "raft.commit.entries")
	c.raftBatches = counterValue(reg, "raft.commit.batches")
	return c
}

// plus returns c + sign·o field by field; sign -1 takes the difference
// between two snapshots, 1 accumulates differences.
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		cpu:          c.cpu + time.Duration(sign)*o.cpu,
		modeledCPU:   c.modeledCPU + time.Duration(sign)*o.modeledCPU,
		allocObjs:    c.allocObjs + sign*o.allocObjs,
		allocBytes:   c.allocBytes + sign*o.allocBytes,
		gcCPU:        c.gcCPU + float64(sign)*o.gcCPU,
		totalCPU:     c.totalCPU + float64(sign)*o.totalCPU,
		flushes:      c.flushes + sign*o.flushes,
		compactions:  c.compactions + sign*o.compactions,
		walBytes:     c.walBytes + sign*o.walBytes,
		flushed:      c.flushed + sign*o.flushed,
		compacted:    c.compacted + sign*o.compacted,
		tablesProbed: c.tablesProbed + sign*o.tablesProbed,
		cacheLookups: c.cacheLookups + sign*o.cacheLookups,
		raftEntries:  c.raftEntries + sign*o.raftEntries,
		raftBatches:  c.raftBatches + sign*o.raftBatches,
	}
}

func counterValue(reg *metric.Registry, name string) int64 {
	if c, ok := reg.Get(name).(*metric.Counter); ok {
		return c.Value()
	}
	return 0
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// l0FilesMax is the deepest level-0 backlog over the KV nodes right now.
func l0FilesMax(srv *crdbserverless.Serverless) int {
	max := 0
	for _, n := range srv.Cluster().Nodes() {
		if l0 := n.Engine().Metrics().L0Files; l0 > max {
			max = l0
		}
	}
	return max
}

// storedBytes sums every node's resident storage: sstable levels, the
// active memtable, and value-log segments.
func storedBytes(srv *crdbserverless.Serverless) int64 {
	var total int64
	for _, n := range srv.Cluster().Nodes() {
		m := n.Engine().Metrics()
		for _, b := range m.LevelBytes {
			total += b
		}
		total += m.MemTableBytes + m.VlogLiveBytes + m.VlogDeadBytes
	}
	return total
}
