package kvserver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crdbserverless/internal/faultinject"
	"crdbserverless/internal/hlc"
	"crdbserverless/internal/keys"
	"crdbserverless/internal/kvpb"
	"crdbserverless/internal/mvcc"
	"crdbserverless/internal/raftlite"
	"crdbserverless/internal/rowfilter"
	"crdbserverless/internal/tenantobs"
	"crdbserverless/internal/timeutil"
	"crdbserverless/internal/trace"
)

// Identity is the authenticated identity a KV client (SQL node) presents —
// the role of the per-tenant mTLS certificate (§3.2.3).
type Identity struct {
	Tenant keys.TenantID
}

// Authorizer checks that a request from an authenticated identity may touch
// the keyspace it addresses. The cluster-virtualization layer (internal/core)
// supplies the implementation.
type Authorizer interface {
	Authorize(id Identity, ba *kvpb.BatchRequest) error
}

// ClusterConfig configures a Cluster.
type ClusterConfig struct {
	Clock timeutil.Clock
	// ReplicationFactor is the number of replicas per range (capped by the
	// node count). Defaults to 3.
	ReplicationFactor int
	// SplitSizeThreshold triggers a size-based split once a range has
	// absorbed this many logical write bytes. Defaults to 64 MiB.
	SplitSizeThreshold int64
	// LeaseDuration for range leases. Defaults to 9s.
	LeaseDuration time.Duration
	// Faults, when non-nil, arms fault-injection sites in every range's
	// replication group (see internal/faultinject).
	Faults *faultinject.Registry
	// DisableGroupCommit turns off proposal coalescing in every range's
	// replication group: each Propose runs its own commit round, the
	// pre-pipelining baseline (the write-path analogue of the LSM's
	// DisableWritePipelining).
	DisableGroupCommit bool
	// CommitOverhead is the fixed per-commit-round cost charged inside each
	// group's critical section (quorum RTT + log fsync). Zero — the default
	// and every deterministic configuration — charges nothing; benchmarks
	// set it to make the cost group commit amortizes visible.
	CommitOverhead time.Duration
	// CommitMetrics, when non-nil, is shared by every range's replication
	// group (raft.commit.batch_size and friends).
	CommitMetrics *raftlite.CommitMetrics
	// RaftLogRetention is the number of committed entries each range's
	// replication group keeps behind the slowest live replica. 0 (the
	// default) never truncates; with a positive value a replica that falls
	// behind the truncation point — a store revived after a crash — rejoins
	// via state snapshot instead of log replay.
	RaftLogRetention uint64
	// LoadSplitQPSThreshold enables load-based splitting: a range whose
	// decayed QPS estimate exceeds it splits at the load-weighted sample
	// median. 0 (the default) disables load splits.
	LoadSplitQPSThreshold float64
	// LoadHalfLife is the half-life of the per-range and per-node load
	// EWMAs. Defaults to 10s.
	LoadHalfLife time.Duration
	// LoadRebalancing enables QPS-weighted lease placement: the tick moves
	// leases off nodes whose decayed load dominates a replica peer's, and
	// the count-based balancer leaves load-significant ranges to it.
	LoadRebalancing bool
	// MergeEnabled turns on cold-range merging: a range whose load and size
	// stay below the hysteresis thresholds for MergeDelay merges into its
	// right neighbor's span.
	MergeEnabled bool
	// MergeQPSFraction is the hysteresis gap between split and merge: a
	// range is merge-cold only while its QPS sits below
	// LoadSplitQPSThreshold×MergeQPSFraction. Defaults to 0.25.
	MergeQPSFraction float64
	// MergeDelay is how long a range must stay cold before it merges
	// (re-checked once after this delay). Defaults to 30s.
	MergeDelay time.Duration
	// RangeMetrics, when non-nil, counts split/merge/transfer decisions.
	RangeMetrics *RangeMetrics
	// Obs, when non-nil, receives per-tenant range-management events.
	Obs *tenantobs.Plane
}

// rangeState is one range: descriptor, replication group, and stats.
type rangeState struct {
	// latch serializes batch evaluation on the range (reads and writes):
	// read evaluation records into the timestamp cache and write evaluation
	// consults it, and the two must not interleave.
	latch sync.Mutex
	desc  *RangeDescriptor
	group *raftlite.Group
	// descAtomic mirrors desc for readers that run under the replication
	// group's lock (snapshot generation and application): they must not take
	// the cluster lock — splitLocked holds it while calling into the group —
	// so they read the descriptor through this pointer instead.
	descAtomic atomic.Pointer[RangeDescriptor]
	// tsc is the range's timestamp cache (lost-update protection).
	tsc *tsCache
	// load is the range's decayed QPS/write-byte signal and key reservoir.
	load *rangeLoad
	// dirty guards duplicate changed-set insertions between ticks: only the
	// first batch after a drain pays the index lock.
	dirty atomic.Bool

	statsMu      sync.Mutex
	writtenBytes int64
	// loadMoveAt is when the load balancer last moved this range's lease.
	// Until the node counters re-converge from observed traffic (a few
	// half-lives), the transferred weight is double-counted on the target
	// and re-moving the range would thrash.
	loadMoveAt time.Time
}

// engineSM adapts a node's engine to the raftlite.SnapshotStateMachine
// interface for one (range, node) replica.
type engineSM struct {
	n  *Node
	rs *rangeState
}

// Apply implements raftlite.StateMachine. After the command's mutations it
// persists the applied index under the range's raw applied key, so a store
// recovering from a crash can tell the replication group how far its durable
// state actually reached (Cluster.RecoverNode).
func (sm engineSM) Apply(index uint64, cmd []byte) error {
	c, err := decodeCommand(cmd)
	if err != nil {
		return err
	}
	e := sm.n.Engine()
	if err := applyMutations(e, c); err != nil {
		return err
	}
	desc := sm.rs.descAtomic.Load()
	return e.Set(appliedKey(desc.RangeID), keys.EncodeUint64(nil, index))
}

// Cluster is a set of KV nodes hosting the partitioned, replicated keyspace.
type Cluster struct {
	cfg   ClusterConfig
	clock timeutil.Clock
	hlc   *hlc.Clock

	// nodesMu guards the node map separately from mu: liveness callbacks
	// fire from lease checks that may run while mu is held.
	nodesMu struct {
		sync.RWMutex
		nodes     map[NodeID]*Node
		nodeOrder []NodeID
	}
	mu struct {
		sync.RWMutex
		ranges      map[RangeID]*rangeState
		nextRangeID RangeID
		auth        Authorizer
		rowDecoder  RowDecoder
	}
	dir metaDirectory
	// idx is the incremental maintenance index (per-node lease/replica
	// aggregates, renewal and merge heaps, the changed set). Lock order:
	// (latches) → c.mu → idx.mu; idx.mu is a strict leaf.
	idx *loadIndex

	tickMu    sync.Mutex
	lastTick  TickStats
	tickCount int64
}

// NewCluster creates a cluster from the given nodes with a single range
// covering the entire keyspace.
func NewCluster(cfg ClusterConfig, nodes []*Node) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("kvserver: cluster needs at least one node")
	}
	if cfg.Clock == nil {
		cfg.Clock = timeutil.NewRealClock()
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.SplitSizeThreshold <= 0 {
		cfg.SplitSizeThreshold = 64 << 20
	}
	if cfg.LeaseDuration <= 0 {
		cfg.LeaseDuration = 9 * time.Second
	}
	if cfg.LoadHalfLife <= 0 {
		cfg.LoadHalfLife = 10 * time.Second
	}
	if cfg.MergeQPSFraction <= 0 {
		cfg.MergeQPSFraction = 0.25
	}
	if cfg.MergeDelay <= 0 {
		cfg.MergeDelay = 30 * time.Second
	}
	c := &Cluster{cfg: cfg, clock: cfg.Clock, hlc: hlc.NewClock(cfg.Clock), idx: newLoadIndex()}
	c.nodesMu.nodes = make(map[NodeID]*Node)
	c.mu.ranges = make(map[RangeID]*rangeState)
	c.mu.nextRangeID = 1
	for _, n := range nodes {
		if _, dup := c.nodesMu.nodes[n.id]; dup {
			return nil, fmt.Errorf("kvserver: duplicate node id %d", n.id)
		}
		c.nodesMu.nodes[n.id] = n
		c.nodesMu.nodeOrder = append(c.nodesMu.nodeOrder, n.id)
	}
	// Initial range spans the whole keyspace.
	span := keys.Span{Key: keys.MinKey.Next(), EndKey: keys.MaxKey}
	if _, err := c.createRangeLocked(span, c.pickReplicasLocked()); err != nil {
		return nil, err
	}
	return c, nil
}

// Clock returns the cluster's HLC.
func (c *Cluster) Clock() *hlc.Clock { return c.hlc }

// WallClock returns the underlying physical clock.
func (c *Cluster) WallClock() timeutil.Clock { return c.clock }

// SetAuthorizer installs the SQL/KV boundary authorization check.
func (c *Cluster) SetAuthorizer(a Authorizer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.auth = a
}

// RowDecoder decodes a stored row value into the column accessor the
// row-filter evaluator consumes. The SQL layer registers its codec here;
// without one, pushed-down filters are ignored and full rows are returned
// (the pre-push-down behavior).
type RowDecoder func(value []byte) (rowfilter.RowAccessor, error)

// SetRowDecoder registers the row codec used for filter push-down (§8).
func (c *Cluster) SetRowDecoder(dec RowDecoder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.rowDecoder = dec
}

func (c *Cluster) rowDecoder() RowDecoder {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.mu.rowDecoder
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) (*Node, bool) {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	n, ok := c.nodesMu.nodes[id]
	return n, ok
}

// Nodes returns all nodes in insertion order.
func (c *Cluster) Nodes() []*Node {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	out := make([]*Node, 0, len(c.nodesMu.nodeOrder))
	for _, id := range c.nodesMu.nodeOrder {
		out = append(out, c.nodesMu.nodes[id])
	}
	return out
}

// liveness reports node health for lease decisions.
func (c *Cluster) liveness(id raftlite.NodeID) bool {
	n, ok := c.Node(id)
	return ok && n.Live()
}

// pickReplicasLocked chooses replica nodes for a new range, preferring an
// even spread (round-robin from a rotating offset).
func (c *Cluster) pickReplicasLocked() []NodeID {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	order := c.nodesMu.nodeOrder
	rf := c.cfg.ReplicationFactor
	if rf > len(order) {
		rf = len(order)
	}
	start := int(c.mu.nextRangeID) % len(order)
	out := make([]NodeID, 0, rf)
	for i := 0; i < rf; i++ {
		out = append(out, order[(start+i)%len(order)])
	}
	return out
}

// createRangeLocked registers a new range over span with the given replicas
// and inserts it into the directory.
func (c *Cluster) createRangeLocked(span keys.Span, replicas []NodeID) (*rangeState, error) {
	rs, err := c.newRangeStateLocked(span, replicas)
	if err != nil {
		return nil, err
	}
	if err := c.dir.insert(rs.desc); err != nil {
		c.idx.unregisterRange(rs.desc.RangeID, rs.desc.Replicas)
		delete(c.mu.ranges, rs.desc.RangeID)
		return nil, err
	}
	return rs, nil
}

// newRangeStateLocked allocates a range (ID, group, state) without touching
// the directory; split commits the directory change atomically via replace.
func (c *Cluster) newRangeStateLocked(span keys.Span, replicas []NodeID) (*rangeState, error) {
	id := c.mu.nextRangeID
	c.mu.nextRangeID++
	// The range state exists before its group: each replica's state machine
	// reads the descriptor (and writes the applied key) through it.
	rs := &rangeState{
		desc: &RangeDescriptor{
			RangeID:  id,
			Span:     span,
			Replicas: append([]NodeID(nil), replicas...),
		},
		tsc:  newTSCache(),
		load: newRangeLoad(id),
	}
	rs.descAtomic.Store(rs.desc)
	sms := make([]raftlite.StateMachine, len(replicas))
	for i, nid := range replicas {
		n, ok := c.Node(nid)
		if !ok {
			return nil, fmt.Errorf("kvserver: unknown node %d", nid)
		}
		sms[i] = engineSM{n: n, rs: rs}
	}
	group, err := raftlite.NewGroup(raftlite.Config{
		RangeID:            int64(id),
		Clock:              c.clock,
		Liveness:           c.liveness,
		LeaseDuration:      c.cfg.LeaseDuration,
		Faults:             c.cfg.Faults,
		DisableGroupCommit: c.cfg.DisableGroupCommit,
		CommitOverhead:     c.cfg.CommitOverhead,
		CommitMetrics:      c.cfg.CommitMetrics,
		LogRetention:       c.cfg.RaftLogRetention,
	}, replicas, sms)
	if err != nil {
		return nil, err
	}
	rs.group = group
	c.mu.ranges[id] = rs
	// Register in the maintenance index: replica aggregates plus a
	// needs-lease entry the next tick drains.
	c.idx.registerRange(id, replicas)
	return rs, nil
}

// rangeByID resolves a range ID to its live state (nil once merged away).
func (c *Cluster) rangeByID(id RangeID) *rangeState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.mu.ranges[id]
}

// rangeFor returns the range state containing key.
func (c *Cluster) rangeFor(key keys.Key) (*rangeState, error) {
	desc, err := c.dir.lookup(key)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	rs, ok := c.mu.ranges[desc.RangeID]
	if !ok {
		return nil, &kvpb.RangeNotFoundError{RangeID: int64(desc.RangeID)}
	}
	return rs, nil
}

// LookupRange returns the descriptor for the range containing key — the META
// range lookup. Reads of META tolerate staleness (follower reads, §3.2.5):
// callers cache results and rely on redirects when ranges move.
func (c *Cluster) LookupRange(key keys.Key) (*RangeDescriptor, error) {
	return c.dir.lookup(key)
}

// Descriptors returns all range descriptors in key order.
func (c *Cluster) Descriptors() []*RangeDescriptor { return c.dir.all() }

// SplitAt splits the range containing key so that key becomes a range start.
// Used both by size/load-based splitting and by the cluster-virtualization
// layer to place tenant boundaries on range boundaries (§3.2.1: the KV layer
// enforces that no two tenants share a range).
func (c *Cluster) SplitAt(key keys.Key) error {
	rs, err := c.rangeFor(key)
	if err != nil {
		return err
	}
	rs.latch.Lock()
	defer rs.latch.Unlock()
	_, err = c.splitLocked(rs, key)
	return err
}

// splitLocked performs the split with rs.latch held. It reports whether a
// split actually happened (false when key is already a boundary).
func (c *Cluster) splitLocked(rs *rangeState, key keys.Key) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	desc := rs.desc
	if key.Equal(desc.Span.Key) {
		return false, nil // already a boundary
	}
	if !desc.Span.ContainsKey(key) {
		return false, &kvpb.RangeKeyMismatchError{RequestedKey: key, ActualSpan: desc.Span}
	}
	rightSpan := keys.Span{Key: key.Clone(), EndKey: desc.Span.EndKey}
	// The right side inherits the parent's replicas: data stays in place.
	right, err := c.newRangeStateLocked(rightSpan, desc.Replicas)
	if err != nil {
		return false, err
	}
	// The right group continues the parent's history: its data already lives
	// in every replica's engine at the parent's applied indexes. Seed it at
	// the parent's commit so a replica that was lagging in the parent reads
	// as lagging here too and heals via snapshot — a fresh group at commit
	// zero would consider such a replica caught up and its right-span state
	// would stay stale forever once the parent's log truncates.
	applied := make(map[NodeID]uint64, len(desc.Replicas))
	for _, nid := range desc.Replicas {
		if a, err := rs.group.AppliedIndex(nid); err == nil {
			applied[nid] = a
		}
	}
	right.group.SeedState(rs.group.CommitIndex(), applied)
	// Shrink the left side and commit both descriptors atomically.
	newLeft := desc.clone()
	newLeft.Span.EndKey = key.Clone()
	newLeft.Generation++
	if err := c.dir.replace(desc.RangeID, newLeft, right.desc); err != nil {
		c.idx.unregisterRange(right.desc.RangeID, right.desc.Replicas)
		delete(c.mu.ranges, right.desc.RangeID)
		return false, err
	}
	rs.desc = newLeft
	rs.descAtomic.Store(newLeft)
	// The new right range's lease starts with the parent's leaseholder so
	// serving continues without interruption.
	if lh, ok := rs.group.Leaseholder(); ok {
		if err := right.group.AcquireLease(lh); err == nil {
			c.idx.noteLease(right.desc.RangeID, lh, c.renewAt())
		}
	}
	// Split halves the parent's accumulated size statistic and partitions
	// the load signal at the boundary.
	rs.statsMu.Lock()
	rs.writtenBytes /= 2
	right.writtenBytes = rs.writtenBytes
	rs.statsMu.Unlock()
	rs.load.halve(key, right.load)
	c.markChanged(rs)
	c.markChanged(right)
	if c.cfg.MergeEnabled {
		// Both halves are merge candidates once the hysteresis delay
		// passes — a split that stops being hot collapses back.
		due := c.clock.Now().Add(c.cfg.MergeDelay)
		c.idx.scheduleMergeCheck(desc.RangeID, due)
		c.idx.scheduleMergeCheck(right.desc.RangeID, due)
	}
	return true, nil
}

// markChanged adds the range to the next tick's changed set, paying the
// index lock only on the first change since the last drain.
func (c *Cluster) markChanged(rs *rangeState) {
	if rs.dirty.CompareAndSwap(false, true) {
		c.idx.markChanged(rs.descAtomic.Load().RangeID)
	}
}

// renewAt is when a lease granted now should be proactively renewed.
func (c *Cluster) renewAt() time.Time {
	return c.clock.Now().Add(c.cfg.LeaseDuration / 2)
}

// splitPoint chooses a split key for the range: the load-weighted sample
// median when the reservoir has seen enough traffic, else a bounded scan's
// midpoint on the leaseholder's engine. Never scans more than
// middleKeyScanLimit rows.
func (c *Cluster) splitPoint(rs *rangeState, leaseholder NodeID) keys.Key {
	span := rs.descAtomic.Load().Span
	if mid := rs.load.splitKey(span); mid != nil {
		return mid
	}
	n, ok := c.Node(leaseholder)
	if !ok {
		return nil
	}
	return boundedMiddleKey(n, span)
}

// maybeSizeSplit splits rs at the load-weighted (or sampled-midpoint) key if
// it has absorbed enough writes.
func (c *Cluster) maybeSizeSplit(rs *rangeState, leaseholder NodeID) {
	rs.statsMu.Lock()
	over := rs.writtenBytes > c.cfg.SplitSizeThreshold
	rs.statsMu.Unlock()
	if !over {
		return
	}
	mid := c.splitPoint(rs, leaseholder)
	if mid == nil {
		return
	}
	rs.latch.Lock()
	defer rs.latch.Unlock()
	// Size splits are opportunistic; a failure is retried at the next
	// threshold crossing.
	if did, err := c.splitLocked(rs, mid); err == nil && did {
		c.cfg.RangeMetrics.sizeSplit()
		c.rangeEvent(mid, "split.size")
	}
}

// maybeLoadSplit splits rs at the load-weighted sample median once its
// decayed QPS crosses the configured threshold.
func (c *Cluster) maybeLoadSplit(rs *rangeState, leaseholder NodeID) {
	thr := c.cfg.LoadSplitQPSThreshold
	if thr <= 0 {
		return
	}
	if rs.load.qps(c.clock.Now(), c.cfg.LoadHalfLife) < thr {
		return
	}
	mid := rs.load.splitKey(rs.descAtomic.Load().Span)
	if mid == nil {
		return // single hot key or not enough samples: nothing to split
	}
	rs.latch.Lock()
	defer rs.latch.Unlock()
	if did, err := c.splitLocked(rs, mid); err == nil && did {
		c.cfg.RangeMetrics.loadSplit()
		c.rangeEvent(mid, "split.load")
	}
}

// rangeEvent forwards a range-management decision to the per-tenant
// observability plane (no-op without one).
func (c *Cluster) rangeEvent(key keys.Key, kind string) {
	if c.cfg.Obs == nil {
		return
	}
	if tid, _, ok := keys.DecodeTenantPrefix(key); ok {
		c.cfg.Obs.RangeEvent(tid, kind)
	}
}

// LeaseCounts returns the number of valid range leases held by each node —
// the per-node lease series of Fig 12.
func (c *Cluster) LeaseCounts() map[NodeID]int {
	c.mu.RLock()
	ranges := make([]*rangeState, 0, len(c.mu.ranges))
	for _, rs := range c.mu.ranges {
		ranges = append(ranges, rs)
	}
	c.mu.RUnlock()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].desc.RangeID < ranges[j].desc.RangeID })
	out := make(map[NodeID]int)
	for _, rs := range ranges {
		if lh, ok := rs.group.Leaseholder(); ok {
			out[lh]++
		}
	}
	return out
}

// NodeLeaseLoads returns each node's effective load — decayed leaseholder
// QPS-weight inflated by queueing occupancy, the signal the load-based
// lease and replica balancers compare. Pairs with LeaseCounts the way
// QPS-weighted placement pairs with count balancing.
func (c *Cluster) NodeLeaseLoads() map[NodeID]float64 {
	now := c.clock.Now()
	out := make(map[NodeID]float64)
	for _, n := range c.Nodes() {
		out[n.id] = c.effectiveLoad(n, now, c.cfg.LoadHalfLife)
	}
	return out
}

// RangeLoadInfo describes one range's placement and load signal — the
// per-range view behind load-management debugging and benchmarks.
type RangeLoadInfo struct {
	RangeID     RangeID
	Start       keys.Key
	Leaseholder NodeID // 0 if leaderless
	QPS         float64
}

// RangeLoads returns every range's leaseholder and decayed-QPS estimate,
// ordered by RangeID.
func (c *Cluster) RangeLoads() []RangeLoadInfo {
	now := c.clock.Now()
	out := make([]RangeLoadInfo, 0, 16)
	for _, rs := range c.rangesByID() {
		info := RangeLoadInfo{
			RangeID: rs.desc.RangeID,
			Start:   rs.descAtomic.Load().Span.Key,
			QPS:     rs.load.qps(now, c.cfg.LoadHalfLife),
		}
		if lh, ok := rs.group.Leaseholder(); ok {
			info.Leaseholder = lh
		}
		out = append(out, info)
	}
	return out
}

// Tick runs periodic cluster maintenance: node ticks (AIMD, token refills,
// capacity estimation), lease upkeep, cold-range merge checks, and lease
// rebalancing. Range work is driven entirely by the maintenance index —
// needs-lease drains, dead-holder lease sets, due renewals, and the
// changed-since-last-tick set — so an idle cluster's tick visits no ranges
// at all, regardless of how many exist.
func (c *Cluster) Tick() {
	for _, n := range c.Nodes() {
		n.Tick()
	}
	now := c.clock.Now()
	var stats TickStats

	// Leaderless ranges (new splits/merges, failed prior attempts). All
	// index drains return RangeID order, not map order: lease maintenance
	// triggers catch-up applies, and those must consult fault-injection
	// sites in a deterministic sequence for seeded chaos runs to reproduce.
	for _, id := range c.idx.drainNeedsLease() {
		if rs := c.rangeByID(id); rs != nil {
			stats.RangesVisited++
			c.ensureLease(rs, &stats)
		}
	}

	// Leases recorded on nodes that are no longer live: sweep them to a
	// live replica. Visits only the dead nodes' lease sets.
	c.nodesMu.RLock()
	nodeIDs := append([]NodeID(nil), c.nodesMu.nodeOrder...)
	c.nodesMu.RUnlock()
	for _, nid := range nodeIDs {
		if c.liveness(nid) {
			continue
		}
		for _, id := range c.idx.leasesOf(nid) {
			if rs := c.rangeByID(id); rs != nil {
				stats.RangesVisited++
				c.ensureLease(rs, &stats)
			}
		}
	}

	// Proactive renewals at the lease half-life.
	for _, id := range c.idx.dueRenewals(now) {
		if rs := c.rangeByID(id); rs != nil {
			stats.RangesVisited++
			c.ensureLease(rs, &stats)
		}
	}

	// Ranges whose load moved since the last tick: clear their dirty flags
	// and queue cold ones for a merge re-check after the hysteresis delay.
	changed := c.idx.drainChanged()
	for _, id := range changed {
		rs := c.rangeByID(id)
		if rs == nil {
			continue
		}
		stats.RangesVisited++
		rs.dirty.Store(false)
		if c.cfg.MergeEnabled && c.isMergeCold(rs, now) {
			c.idx.scheduleMergeCheck(id, now.Add(c.cfg.MergeDelay))
		}
	}

	// Cold-range merges whose hysteresis delay expired and that are still
	// cold get merged into their right neighbor.
	if c.cfg.MergeEnabled {
		for _, id := range c.idx.dueMergeChecks(now) {
			rs := c.rangeByID(id)
			if rs == nil {
				continue
			}
			stats.RangesVisited++
			if !c.isMergeCold(rs, now) {
				// Still hot or large: keep watching at the hysteresis
				// cadence rather than dropping the candidate.
				c.idx.scheduleMergeCheck(id, now.Add(c.cfg.MergeDelay))
				continue
			}
			if did, err := c.mergeRight(rs); err == nil && did {
				stats.Merges++
			}
		}
	}

	c.rebalanceLeases(now, changed, &stats)

	c.tickMu.Lock()
	c.lastTick = stats
	c.tickCount++
	c.tickMu.Unlock()
}

// LastTickStats reports what the most recent Tick did — the O(changed)
// evidence the fleet benchmark and tests gate on.
func (c *Cluster) LastTickStats() TickStats {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	return c.lastTick
}

// ensureLease makes sure the range has a live leaseholder, preferring the
// current holder (extend) and falling back to the first live replica
// (AcquireLease applies any entries the taker missed before granting). The
// outcome is recorded in the maintenance index either way.
func (c *Cluster) ensureLease(rs *rangeState, stats *TickStats) {
	id := rs.descAtomic.Load().RangeID
	if lh, ok := rs.group.Leaseholder(); ok {
		if n, exists := c.Node(lh); exists && n.Live() {
			stats.LeaseOps++
			if err := rs.group.ExtendLease(lh); err == nil {
				c.idx.noteLease(id, lh, c.renewAt())
				return
			}
		}
	}
	for _, nid := range rs.group.Replicas() {
		if c.liveness(nid) {
			stats.LeaseOps++
			if err := rs.group.AcquireLease(nid); err == nil {
				c.idx.noteLease(id, nid, c.renewAt())
				return
			}
		}
	}
	// No live replica could take the lease; retry next tick.
	c.idx.markNeedsLease(id)
}

// isMergeCold reports whether the range's load and size sit below the merge
// hysteresis thresholds.
func (c *Cluster) isMergeCold(rs *rangeState, now time.Time) bool {
	rs.statsMu.Lock()
	small := rs.writtenBytes <= c.cfg.SplitSizeThreshold/2
	rs.statsMu.Unlock()
	if !small {
		return false
	}
	if c.cfg.LoadSplitQPSThreshold <= 0 {
		// No QPS threshold configured: size alone decides.
		return true
	}
	return rs.load.qps(now, c.cfg.LoadHalfLife) < c.cfg.LoadSplitQPSThreshold*c.cfg.MergeQPSFraction
}

// rebalanceLeases moves leases toward an even spread (mechanism (a) of
// §5.1.1, operating at a longer time scale than admission). With
// LoadRebalancing enabled a first pass moves the hottest changed ranges off
// QPS-overloaded nodes; the count pass then evens out lease counts using the
// index aggregates, walking only the most-loaded node's lease set.
func (c *Cluster) rebalanceLeases(now time.Time, changed []RangeID, stats *TickStats) {
	c.nodesMu.RLock()
	liveIDs := make([]NodeID, 0, len(c.nodesMu.nodeOrder))
	for _, nid := range c.nodesMu.nodeOrder {
		if n := c.nodesMu.nodes[nid]; n != nil && n.Live() {
			liveIDs = append(liveIDs, nid)
		}
	}
	c.nodesMu.RUnlock()
	if len(liveIDs) < 2 {
		return
	}
	sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i] < liveIDs[j] })
	halfLife := c.cfg.LoadHalfLife

	if c.cfg.LoadRebalancing {
		c.rebalanceLeasesByLoad(now, changed, halfLife, stats)
	}

	// Count pass: even the spread using the index's O(1) per-node counts.
	counts := make(map[NodeID]int, len(liveIDs))
	for _, nid := range liveIDs {
		counts[nid] = c.idx.leaseCount(nid)
	}
	for iter := 0; iter < 128; iter++ {
		maxN, minN := liveIDs[0], liveIDs[0]
		for _, nid := range liveIDs[1:] {
			if counts[nid] > counts[maxN] {
				maxN = nid
			}
			if counts[nid] < counts[minN] {
				minN = nid
			}
		}
		if counts[maxN]-counts[minN] <= 1 {
			return
		}
		moved := false
		for _, id := range c.idx.leasesOf(maxN) {
			rs := c.rangeByID(id)
			if rs == nil {
				continue
			}
			if c.cfg.LoadRebalancing && rs.load.weightAt(now, halfLife) >= loadSignificanceWeight {
				continue // the load pass owns hot ranges
			}
			lh, ok := rs.group.Leaseholder()
			if !ok || lh != maxN {
				continue
			}
			best := lh
			for _, nid := range rs.group.Replicas() {
				if c.liveness(nid) && counts[nid] < counts[best] {
					best = nid
				}
			}
			if best == lh || counts[lh]-counts[best] <= 1 {
				continue
			}
			// TransferLease catches the target up before handing over.
			if err := rs.group.TransferLease(lh, best); err == nil {
				c.idx.noteLease(id, best, c.renewAt())
				counts[lh]--
				counts[best]++
				stats.LeaseTransfers++
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}

// effectiveLoad is a node's placement-comparable load: delivered QPS-weight
// inflated by smoothed per-vCPU occupancy. A node pushed past capacity
// delivers no more QPS — the overload shows up only as queue growth — so
// comparing delivered weight alone under-reports saturated nodes and the
// balancer converges to a placement that still drowns them. The occupancy
// term (Little's law over the decayed batch node-seconds) keeps growing
// with congestion and restores the signal.
func (c *Cluster) effectiveLoad(n *Node, now time.Time, halfLife time.Duration) float64 {
	eff, _ := c.nodeLoad(n, now, halfLife)
	return eff
}

// nodeLoad returns a node's effective load and the inflation factor applied
// to its delivered weight. The factor is capped: occupancy is a noisy
// instantaneous-ish signal, and an uncapped multiplier would let one
// congested sample dominate every placement comparison for a half-life.
func (c *Cluster) nodeLoad(n *Node, now time.Time, halfLife time.Duration) (eff, inflation float64) {
	raw := n.leaseLoad.value(now, halfLife)
	inflation = 1.0
	if halfLife > 0 {
		occupancy := n.waitLoad.value(now, halfLife) * math.Ln2 / halfLife.Seconds()
		inflation += occupancy / float64(n.vcpus)
		if inflation > 4 {
			inflation = 4
		}
	}
	return raw * inflation, inflation
}

// rebalanceLeasesByLoad moves the hottest recently-changed ranges' leases
// off nodes whose decayed QPS load dominates a peer's. A lease transfer to a
// colder replica peer is the cheap first choice; when every peer is hot too
// — a split-up hot range's pieces all inherit the parent's replica set, so
// the peers heat up together — the leaseholder's replica moves to the
// globally coldest non-member node instead, and the lease travels with it.
func (c *Cluster) rebalanceLeasesByLoad(now time.Time, changed []RangeID, halfLife time.Duration, stats *TickStats) {
	const maxMovesPerTick = 4
	const maxReplicaMovesPerTick = 2
	type cand struct {
		id RangeID
		w  float64
	}
	cands := make([]cand, 0, len(changed))
	for _, id := range changed {
		rs := c.rangeByID(id)
		if rs == nil {
			continue
		}
		if w := rs.load.weightAt(now, halfLife); w >= loadRebalanceMinWeight {
			cands = append(cands, cand{id: id, w: w})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].id < cands[j].id
	})
	moves := 0
	for _, cd := range cands {
		if moves >= maxMovesPerTick {
			return
		}
		rs := c.rangeByID(cd.id)
		if rs == nil {
			continue
		}
		rs.statsMu.Lock()
		cooling := !rs.loadMoveAt.IsZero() && now.Sub(rs.loadMoveAt) < 3*halfLife
		rs.statsMu.Unlock()
		if cooling {
			continue
		}
		lh, ok := rs.group.Leaseholder()
		if !ok {
			continue
		}
		lhNode, ok := c.Node(lh)
		if !ok || !lhNode.Live() {
			continue
		}
		lhLoad, lhInfl := c.nodeLoad(lhNode, now, halfLife)
		// The candidate's weight is delivered QPS too, deflated by the same
		// saturation that deflates its node's counter: compare hysteresis in
		// the inflated space or every inflated diff clears a raw threshold
		// and the balancer thrashes.
		wEff := cd.w * lhInfl
		best, bestLoad := lh, lhLoad
		var bestNode *Node
		for _, nid := range rs.group.Replicas() {
			if nid == lh || !c.liveness(nid) {
				continue
			}
			n, exists := c.Node(nid)
			if !exists {
				continue
			}
			if l := c.effectiveLoad(n, now, halfLife); l < bestLoad {
				best, bestLoad, bestNode = nid, l, n
			}
		}
		// Move only when the holder's load exceeds the target's by more
		// than the range's own weight — otherwise the transfer would just
		// swap which node is hot (thrash).
		// Two-part hysteresis: the holder must dominate the target by the
		// candidate's own inflated weight (or the move just swaps which node
		// is hot) and by a 20% multiplicative margin (or late-stage noise
		// keeps the balancer shuffling proportionally-equal nodes forever).
		if best != lh && lhLoad-bestLoad > 1.5*wEff && lhLoad > 1.2*bestLoad {
			if err := rs.group.TransferLease(lh, best); err != nil {
				continue
			}
			c.idx.noteLease(cd.id, best, c.renewAt())
			rs.statsMu.Lock()
			rs.loadMoveAt = now
			rs.statsMu.Unlock()
			// Credit the target now; let the source decay to its reduced
			// traffic naturally. Debiting the source would make it look
			// colder than its true load for a half-life, attracting a
			// compensating move and oscillating load between node pairs —
			// overstating both sides instead pauses the balancer until the
			// counters re-converge on observed traffic.
			bestNode.leaseLoad.add(now, halfLife, cd.w)
			stats.LoadLeaseTransfers++
			c.cfg.RangeMetrics.loadLeaseTransfer()
			c.rangeEvent(rs.descAtomic.Load().Span.Key, "lease.load")
			moves++
			continue
		}
		// No replica peer can absorb the load. Look for a colder node
		// outside the replica set: move the leaseholder's replica there
		// (MoveReplica re-grants the departing holder's lease at the
		// destination), bounded tighter than lease transfers because a
		// replica move copies span data.
		if stats.LoadReplicaMoves >= maxReplicaMovesPerTick {
			continue
		}
		coldest, coldLoad := NodeID(0), lhLoad
		var coldNode *Node
		for _, n := range c.Nodes() {
			if n.id == lh || !n.Live() || hasReplica(rs, n.id) {
				continue
			}
			if l := c.effectiveLoad(n, now, halfLife); l < coldLoad {
				coldest, coldLoad, coldNode = n.id, l, n
			}
		}
		if coldest == 0 || lhLoad-coldLoad <= 1.5*wEff || lhLoad <= 1.2*coldLoad {
			continue
		}
		if err := c.MoveReplica(cd.id, lh, coldest); err != nil {
			continue
		}
		rs.statsMu.Lock()
		rs.loadMoveAt = now
		rs.statsMu.Unlock()
		coldNode.leaseLoad.add(now, halfLife, cd.w)
		stats.LoadReplicaMoves++
		c.cfg.RangeMetrics.loadReplicaMove()
		c.rangeEvent(rs.descAtomic.Load().Span.Key, "replica.load")
		moves++
	}
}

// ReplicaStatus reports one replica's replication progress.
type ReplicaStatus struct {
	RangeID RangeID
	Node    NodeID
	Applied uint64
	Commit  uint64
}

// ReplicaStatuses returns the applied and commit indexes of every replica of
// every range, ordered by (range, replica). The chaos harness's convergence
// invariant — all applied state reaches the commit index after quiescence —
// reads these.
func (c *Cluster) ReplicaStatuses() []ReplicaStatus {
	var out []ReplicaStatus
	for _, rs := range c.rangesByID() {
		commit := rs.group.CommitIndex()
		for _, nid := range rs.group.Replicas() {
			applied, err := rs.group.AppliedIndex(nid)
			if err != nil {
				continue
			}
			out = append(out, ReplicaStatus{
				RangeID: rs.desc.RangeID, Node: nid, Applied: applied, Commit: commit,
			})
		}
	}
	return out
}

// RaftSnapshots returns the total number of snapshot catch-ups performed
// across every range's replication group — replicas that fell behind the
// truncated log (crashed stores) and rejoined via state transfer.
func (c *Cluster) RaftSnapshots() int64 {
	var total int64
	for _, rs := range c.rangesByID() {
		total += rs.group.Snapshots()
	}
	return total
}

// CatchUpReplicas applies pending committed entries on every replica of every
// range — the quiescence step before checking convergence, standing in for
// the raft log replay a revived node performs.
func (c *Cluster) CatchUpReplicas() error {
	var firstErr error
	for _, rs := range c.rangesByID() {
		for _, nid := range rs.group.Replicas() {
			if err := rs.group.CatchUp(nid); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// rangesByID snapshots the range states in RangeID order.
func (c *Cluster) rangesByID() []*rangeState {
	c.mu.RLock()
	ranges := make([]*rangeState, 0, len(c.mu.ranges))
	for _, rs := range c.mu.ranges {
		ranges = append(ranges, rs)
	}
	c.mu.RUnlock()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].desc.RangeID < ranges[j].desc.RangeID })
	return ranges
}

// RunGC reclaims old MVCC versions across every range and node, retaining
// versions newer than keepAfter (and always the newest committed version and
// all intents). It returns the number of versions removed. This is the
// storage-reclamation path behind "the only cost is for storage" (§4.2.3):
// suspended tenants' data keeps getting compacted down.
func (c *Cluster) RunGC(keepAfter hlc.Timestamp) (int, error) {
	removed := 0
	c.mu.RLock()
	ranges := make([]*rangeState, 0, len(c.mu.ranges))
	for _, rs := range c.mu.ranges {
		ranges = append(ranges, rs)
	}
	c.mu.RUnlock()
	// GC visits ranges in RangeID order so injected storage faults land on a
	// deterministic range regardless of map iteration.
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].desc.RangeID < ranges[j].desc.RangeID })
	for _, rs := range ranges {
		rs.latch.Lock()
		for _, nid := range rs.desc.Replicas {
			n, ok := c.Node(nid)
			if !ok {
				continue
			}
			nRemoved, err := mvcc.GCOldVersions(n.Engine(), rs.desc.Span, keepAfter)
			if err != nil {
				rs.latch.Unlock()
				return removed, err
			}
			removed += nRemoved
		}
		rs.latch.Unlock()
	}
	return removed, nil
}

// TenantStorageBytes reports the logical bytes a tenant stores (latest
// visible versions, summed over one replica) — the storage-billing input for
// suspended tenants (§6.2: storage is the only cost at zero compute).
func (c *Cluster) TenantStorageBytes(tenant keys.TenantID) (int64, error) {
	span := keys.MakeTenantSpan(tenant)
	c.mu.RLock()
	ranges := make([]*rangeState, 0)
	for _, rs := range c.mu.ranges {
		if rs.desc.Span.Overlaps(span) {
			ranges = append(ranges, rs)
		}
	}
	c.mu.RUnlock()
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].desc.RangeID < ranges[j].desc.RangeID })
	var total int64
	readTs := c.hlc.Now()
	for _, rs := range ranges {
		// Read from any replica; storage accounting tolerates staleness.
		n, ok := c.Node(rs.desc.Replicas[0])
		if !ok {
			continue
		}
		overlap := rs.desc.Span
		if overlap.Key.Less(span.Key) {
			overlap.Key = span.Key
		}
		if span.EndKey.Less(overlap.EndKey) {
			overlap.EndKey = span.EndKey
		}
		res, err := mvcc.Scan(n.Engine(), overlap, readTs, 0, 0)
		if err != nil {
			return 0, err
		}
		for _, kv := range res.Rows {
			total += int64(len(kv.Key) + len(kv.Value))
		}
	}
	return total, nil
}

// Close shuts down all nodes.
func (c *Cluster) Close() {
	for _, n := range c.Nodes() {
		n.Close()
	}
}

var errRetryExhausted = errors.New("kvserver: internal retry budget exhausted")

// Batch executes a batch on the given node — the KV RPC entry point. The
// node must hold the lease for the addressed range (or the batch must be a
// follower read on a node holding a replica). Authorization (§3.2.3) runs
// before any data access.
func (c *Cluster) Batch(ctx context.Context, nodeID NodeID, id Identity, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	ctx, sp := trace.StartSpan(ctx, "kv.eval")
	defer sp.Finish()
	sp.SetAttr("kv.node", nodeID)
	n, ok := c.Node(nodeID)
	if !ok {
		return nil, fmt.Errorf("kvserver: unknown node %d", nodeID)
	}
	c.mu.RLock()
	auth := c.mu.auth
	c.mu.RUnlock()
	if auth != nil {
		if err := auth.Authorize(id, ba); err != nil {
			return nil, err
		}
	}
	if len(ba.Requests) == 0 {
		return &kvpb.BatchResponse{Timestamp: ba.ReadTs()}, nil
	}

	// Locate the range; every request in the batch must fall within it
	// (DistSender splits batches at range boundaries).
	rs, err := c.rangeFor(ba.Requests[0].Key)
	if err != nil {
		return nil, err
	}
	for _, r := range ba.Requests {
		span := r.Span()
		if !rs.desc.Span.ContainsKey(span.Key) {
			return nil, &kvpb.RangeKeyMismatchError{RequestedKey: span.Key, ActualSpan: rs.desc.Span}
		}
		if !span.IsPoint() && rs.desc.Span.EndKey.Less(span.EndKey) {
			return nil, &kvpb.RangeKeyMismatchError{RequestedKey: span.EndKey, ActualSpan: rs.desc.Span}
		}
	}

	// Lease check. Follower reads only need a local replica.
	if ba.FollowerRead && ba.IsReadOnly() {
		if !hasReplica(rs, nodeID) {
			return nil, &kvpb.RangeNotFoundError{RangeID: int64(rs.desc.RangeID)}
		}
	} else {
		lh, ok := rs.group.Leaseholder()
		if !ok {
			// Try to acquire for ourselves.
			// AcquireLease itself catches the node up to the commit index
			// before granting, so the new leaseholder serves current state.
			if err := rs.group.AcquireLease(nodeID); err != nil {
				var nle *kvpb.NotLeaseholderError
				if errors.As(err, &nle) {
					return nil, nle
				}
				return nil, &kvpb.NotLeaseholderError{RangeID: int64(rs.desc.RangeID)}
			}
			c.idx.noteLease(rs.desc.RangeID, nodeID, c.renewAt())
		} else if lh != nodeID {
			return nil, &kvpb.NotLeaseholderError{RangeID: int64(rs.desc.RangeID), Leaseholder: lh}
		}
	}

	sp.SetAttr("kv.range", rs.desc.RangeID)

	// Admission control (§5.1): writes pass the write queue, everything
	// passes the CPU queue.
	admitStart := c.clock.Now()
	if err := n.admitWrite(ctx, ba); err != nil {
		return nil, err
	}
	releaseCPU, err := n.admitCPU(ctx, ba)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("admission.wait", c.clock.Since(admitStart))

	resp, evalErr := c.evaluateBatch(ctx, n, rs, ba)
	// Charge ground-truth CPU: the work happens whether or not evaluation
	// errored (conflict checks consume CPU too), but successful responses
	// carry the payload costs.
	cost := n.chargeCPU(ba, resp, !ba.Colocated)
	releaseCPU(cost)
	if evalErr != nil {
		return nil, evalErr
	}
	// Load accounting: decay-and-add the range and leaseholder counters,
	// sample the first request key into the split reservoir, and flag the
	// range for the next maintenance tick. Split checks run outside the
	// range latch.
	var writeBytes int64
	if !ba.IsReadOnly() {
		for _, r := range ba.Requests {
			writeBytes += int64(len(r.Key) + len(r.Value))
		}
	}
	now := c.clock.Now()
	rs.load.record(now, c.cfg.LoadHalfLife, len(ba.Requests), writeBytes, ba.Requests[0].Key)
	n.leaseLoad.add(now, c.cfg.LoadHalfLife, float64(len(ba.Requests)))
	n.waitLoad.add(now, c.cfg.LoadHalfLife, now.Sub(admitStart).Seconds())
	c.markChanged(rs)
	c.maybeLoadSplit(rs, nodeID)
	if !ba.IsReadOnly() {
		c.maybeSizeSplit(rs, nodeID)
	}
	return resp, nil
}

func hasReplica(rs *rangeState, nodeID NodeID) bool {
	for _, r := range rs.descAtomic.Load().Replicas {
		if r == nodeID {
			return true
		}
	}
	return false
}

// evaluateBatch runs the batch against the node's engine, proposing writes
// through the range's replication group.
func (c *Cluster) evaluateBatch(ctx context.Context, n *Node, rs *rangeState, ba *kvpb.BatchRequest) (*kvpb.BatchResponse, error) {
	readTs := ba.ReadTs()
	if readTs.IsEmpty() {
		readTs = c.hlc.Now()
	}
	var txnID uint64
	if ba.Txn != nil {
		txnID = ba.Txn.ID
	}

	resp := &kvpb.BatchResponse{Timestamp: readTs}

	// All evaluation runs under the range latch: reads record into the
	// timestamp cache and writes consult it, so a write can never land
	// below a timestamp at which another transaction already read the key
	// (the lost-update protection CRDB implements with its timestamp
	// cache). Follower reads are intentionally stale and skip the cache.
	rs.latch.Lock()
	defer rs.latch.Unlock()

	// Reads record into the timestamp cache only after the whole batch has
	// been checked: a batch's own reads must not push its own writes (they
	// all happen atomically at one timestamp).
	var readSpans []keys.Span
	defer func() {
		if ba.FollowerRead {
			return // intentionally stale; not a serializable read point
		}
		for _, sp := range readSpans {
			rs.tsc.recordRead(sp, readTs, txnID)
		}
	}()

	if ba.IsReadOnly() {
		for _, r := range ba.Requests {
			out, err := evalRead(n, r, readTs, txnID, c.rowDecoder())
			if err != nil {
				return nil, err
			}
			readSpans = append(readSpans, r.Span())
			resp.Responses = append(resp.Responses, out)
		}
		return resp, nil
	}

	// checkWrite combines the timestamp-cache push with MVCC conflicts.
	checkWrite := func(key keys.Key) error {
		if cached := rs.tsc.maxReadOther(key, txnID); !cached.Less(readTs) {
			return &kvpb.WriteTooOldError{Key: key.Clone(), ActualTs: cached.Next()}
		}
		return mvcc.CheckWriteConflict(n.Engine(), key, readTs, txnID)
	}

	var cmd command
	var writtenBytes int64
	for _, r := range ba.Requests {
		switch r.Method {
		case kvpb.Get, kvpb.Scan:
			out, err := evalRead(n, r, readTs, txnID, c.rowDecoder())
			if err != nil {
				return nil, err
			}
			readSpans = append(readSpans, r.Span())
			resp.Responses = append(resp.Responses, out)
		case kvpb.Put:
			if err := checkWrite(r.Key); err != nil {
				return nil, err
			}
			cmd.Mutations = append(cmd.Mutations, mutation{
				Kind: mutPut, Key: r.Key.Clone(), Ts: readTs, TxnID: txnID, Value: r.Value,
			})
			writtenBytes += int64(len(r.Key) + len(r.Value))
			resp.Responses = append(resp.Responses, kvpb.Response{Method: r.Method})
		case kvpb.Delete:
			if err := checkWrite(r.Key); err != nil {
				return nil, err
			}
			cmd.Mutations = append(cmd.Mutations, mutation{
				Kind: mutDelete, Key: r.Key.Clone(), Ts: readTs, TxnID: txnID,
			})
			writtenBytes += int64(len(r.Key))
			resp.Responses = append(resp.Responses, kvpb.Response{Method: r.Method})
		case kvpb.DeleteRange:
			res, err := mvcc.Scan(n.Engine(), r.Span(), readTs, txnID, 0)
			if err != nil {
				return nil, err
			}
			// Report the deleted keys so a transactional caller can track
			// (and later resolve) the intents this request lays down.
			readSpans = append(readSpans, r.Span())
			deleted := kvpb.Response{Method: r.Method}
			for _, kv := range res.Rows {
				if err := checkWrite(kv.Key); err != nil {
					return nil, err
				}
				cmd.Mutations = append(cmd.Mutations, mutation{
					Kind: mutDelete, Key: kv.Key.Clone(), Ts: readTs, TxnID: txnID,
				})
				writtenBytes += int64(len(kv.Key))
				deleted.Rows = append(deleted.Rows, kvpb.KeyValue{Key: kv.Key.Clone()})
			}
			resp.Responses = append(resp.Responses, deleted)
		case kvpb.ResolveIntent:
			cmd.Mutations = append(cmd.Mutations, mutation{
				Kind: mutResolve, Key: r.Key.Clone(), TxnID: r.ResolveTxnID,
				Commit: r.ResolveCommit, CommitTs: r.ResolveTs,
			})
			resp.Responses = append(resp.Responses, kvpb.Response{Method: r.Method})
		case kvpb.ResolveIntentRange:
			// The leaseholder enumerates the transaction's intents in the
			// span and replicates one point resolution per key, so every
			// replica applies the identical mutation list.
			iks, err := mvcc.IntentKeys(n.Engine(), r.Span(), r.ResolveTxnID)
			if err != nil {
				return nil, err
			}
			out := kvpb.Response{Method: r.Method}
			for _, k := range iks {
				cmd.Mutations = append(cmd.Mutations, mutation{
					Kind: mutResolve, Key: k, TxnID: r.ResolveTxnID,
					Commit: r.ResolveCommit, CommitTs: r.ResolveTs,
				})
				out.Rows = append(out.Rows, kvpb.KeyValue{Key: k})
			}
			resp.Responses = append(resp.Responses, out)
		default:
			return nil, fmt.Errorf("kvserver: unsupported method %s", r.Method)
		}
	}

	if len(cmd.Mutations) > 0 {
		if err := rs.group.ProposeCtx(ctx, n.id, encodeCommand(cmd)); err != nil {
			return nil, err
		}
		rs.statsMu.Lock()
		rs.writtenBytes += writtenBytes
		rs.statsMu.Unlock()
	}
	return resp, nil
}

// evalRead serves a read request from the node's local engine.
func evalRead(n *Node, r kvpb.Request, readTs hlc.Timestamp, txnID uint64, dec RowDecoder) (kvpb.Response, error) {
	switch r.Method {
	case kvpb.Get:
		v, ok, err := mvcc.Get(n.Engine(), r.Key, readTs, txnID)
		if err != nil {
			return kvpb.Response{}, err
		}
		return kvpb.Response{Method: r.Method, Value: v, Exists: ok}, nil
	case kvpb.Scan:
		res, err := mvcc.Scan(n.Engine(), r.Span(), readTs, txnID, r.MaxKeys)
		if err != nil {
			return kvpb.Response{}, err
		}
		out := kvpb.Response{Method: r.Method, Rows: res.Rows, ResumeSpan: res.Resume}
		for _, kv := range res.Rows {
			out.ScannedBytes += int64(len(kv.Key) + len(kv.Value))
		}
		// Row-filter push-down (§8): drop non-matching rows before they
		// cross the process boundary. Requires a registered row codec;
		// undecodable rows are returned unfiltered (fail open — the SQL
		// layer re-applies the full predicate regardless).
		if len(r.Filter) > 0 && dec != nil {
			filter, ferr := rowfilter.Decode(r.Filter)
			if ferr != nil {
				return kvpb.Response{}, ferr
			}
			kept := out.Rows[:0]
			for _, kv := range out.Rows {
				acc, derr := dec(kv.Value)
				if derr != nil || filter.Matches(acc) {
					kept = append(kept, kv)
				}
			}
			out.Rows = kept
		}
		return out, nil
	default:
		return kvpb.Response{}, fmt.Errorf("kvserver: %s is not a read", r.Method)
	}
}
