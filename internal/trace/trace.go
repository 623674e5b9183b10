// Package trace is a stdlib-only, deterministic tracing layer for the
// request path: proxy → SQL → txn → DistSender → KV → LSM.
//
// A Tracer mints spans whose trace/span IDs come from a seeded
// randutil RNG and whose timestamps come from a timeutil.Clock, so two
// runs of the simulator with the same seed produce byte-identical trace
// IDs and span structure. Spans nest parent→child, carry structured
// events and attributes, and — when the root finishes — land in a
// bounded in-memory Recorder that force-retains slow outliers (see
// recorder.go) and feeds the /debug/tracez renderer.
//
// All Span methods are safe on a nil receiver, so uninstrumented paths
// (no tracer configured, or no span in the context) pay only a nil
// check. The free StartSpan function starts a child of whatever span is
// in the context, which keeps deep layers (txn, DistSender, admission)
// free of any Tracer plumbing.
package trace

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crdbserverless/internal/metric"
	"crdbserverless/internal/randutil"
	"crdbserverless/internal/timeutil"
)

// Options configures a Tracer.
type Options struct {
	// Clock supplies span timestamps. Defaults to timeutil.RealClock.
	Clock timeutil.Clock
	// Seed seeds the trace/span ID stream. The default (0) is a fixed
	// seed, so even unconfigured tracers are reproducible.
	Seed int64
	// Metrics, when non-nil, receives the tracer's own counters
	// (trace.spans_started, trace.spans_finished, trace.roots_recorded,
	// trace.slow_retained, trace.children_dropped).
	Metrics *metric.Registry
	// SlowThreshold is the root-span duration at or above which a
	// finished trace is force-retained by the recorder regardless of
	// ring-buffer churn. Defaults to 250ms.
	SlowThreshold time.Duration
	// RingSize bounds the recorder's ring of recently finished root
	// traces. Defaults to 64.
	RingSize int
	// SlowSize bounds the recorder's list of retained slow traces
	// (oldest evicted first). Defaults to 32.
	SlowSize int
}

// Tracer mints and records spans. The zero value is not usable; use New.
// A nil *Tracer is a valid no-op tracer: every Start method returns a
// nil (no-op) span.
type Tracer struct {
	clock    timeutil.Clock
	recorder *Recorder
	// ids is the root ID stream seeded by Options.Seed. Spans inherit
	// their parent's stream, so an unforked trace draws every ID from
	// this one stream in creation order — exactly the pre-fork behavior.
	ids *idStream

	spansStarted  *metric.Counter
	spansFinished *metric.Counter

	mu struct {
		sync.Mutex
		// live maps span ID → unfinished span, so a logically remote
		// layer (the SQL node, reached over the wire) can attach child
		// spans to the in-flight parent by ID alone.
		live map[uint64]*Span
	}
}

// idStream is an independent deterministic source of span IDs. A parallel
// region forks one stream per branch — in deterministic order, before any
// goroutine launches — so each branch's descendants draw IDs from their own
// seeded stream and same-seed runs produce byte-identical traces regardless
// of goroutine scheduling.
type idStream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newIDStream(seed int64) *idStream {
	return &idStream{rng: randutil.NewRand(seed)}
}

// next returns a fresh nonzero ID.
func (ids *idStream) next() uint64 {
	ids.mu.Lock()
	defer ids.mu.Unlock()
	for {
		if id := ids.rng.Uint64(); id != 0 {
			return id
		}
	}
}

// fork derives a new stream whose seed is drawn from this one.
func (ids *idStream) fork() *idStream {
	ids.mu.Lock()
	seed := ids.rng.Int63()
	ids.mu.Unlock()
	return newIDStream(seed)
}

// New returns a Tracer.
func New(opts Options) *Tracer {
	if opts.Clock == nil {
		opts.Clock = timeutil.RealClock{}
	}
	t := &Tracer{
		clock:         opts.Clock,
		recorder:      newRecorder(opts),
		spansStarted:  &metric.Counter{},
		spansFinished: &metric.Counter{},
	}
	t.ids = newIDStream(opts.Seed)
	t.mu.live = map[uint64]*Span{}
	if opts.Metrics != nil {
		opts.Metrics.MustRegister("trace.spans_started", t.spansStarted)
		opts.Metrics.MustRegister("trace.spans_finished", t.spansFinished)
		opts.Metrics.MustRegister("trace.roots_recorded", t.recorder.rootsRecorded)
		opts.Metrics.MustRegister("trace.slow_retained", t.recorder.slowRetained)
		opts.Metrics.MustRegister("trace.children_dropped", t.recorder.childrenDropped)
	}
	return t
}

// Recorder returns the tracer's recorder of finished root traces.
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.recorder
}

// Clock returns the clock span timestamps are drawn from.
func (t *Tracer) Clock() timeutil.Clock {
	if t == nil {
		return nil
	}
	return t.clock
}

// newSpan mints a span. IDs come from ids when non-nil, otherwise from the
// parent's stream (which, unforked, is the tracer's root stream).
func (t *Tracer) newSpan(op string, traceID, parentID uint64, parent *Span, ids *idStream) *Span {
	if ids == nil {
		if parent != nil && parent.ids != nil {
			ids = parent.ids
		} else {
			ids = t.ids
		}
	}
	s := &Span{tracer: t, op: op, start: t.clock.Now(), ids: ids}
	if traceID == 0 {
		traceID = ids.next()
	}
	s.traceID = traceID
	s.spanID = ids.next()
	s.parentID = parentID
	t.mu.Lock()
	t.mu.live[s.spanID] = s
	t.mu.Unlock()
	if parent != nil {
		parent.addChild(s)
	}
	t.spansStarted.Inc(1)
	return s
}

// StartRoot starts a new root span — the head of a fresh trace. Used
// for entry points (a proxy connection) and background work (LSM
// flushes and compactions) that have no inbound context.
func (t *Tracer) StartRoot(op string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(op, 0, 0, nil, nil)
}

// StartSpan starts a span as a child of the span in ctx, or a new root
// if ctx carries none, and returns a context carrying the new span.
func (t *Tracer) StartSpan(ctx context.Context, op string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var s *Span
	if parent := SpanFromContext(ctx); parent != nil {
		s = t.newSpan(op, parent.traceID, parent.spanID, parent, nil)
	} else {
		s = t.newSpan(op, 0, 0, nil, nil)
	}
	return ContextWithSpan(ctx, s), s
}

// StartRemote continues a trace whose parent span lives on the other
// side of a wire hop: the caller supplies the propagated trace and
// parent span IDs. If the parent is still in flight in this tracer the
// child is attached to it (the simulator's proxy and SQL pods share a
// process); otherwise the child is recorded as a detached root carrying
// the remote trace ID.
func (t *Tracer) StartRemote(traceID, parentSpanID uint64, op string) *Span {
	if t == nil || traceID == 0 {
		return nil
	}
	t.mu.Lock()
	parent := t.mu.live[parentSpanID]
	t.mu.Unlock()
	if parent != nil {
		return t.newSpan(op, traceID, parentSpanID, parent, nil)
	}
	return t.newSpan(op, traceID, 0, nil, nil)
}

// StartSpan starts a child of the span carried by ctx using that span's
// own tracer, or returns a no-op span when ctx carries none. This is
// the form deep layers use: no Tracer handle needed.
func StartSpan(ctx context.Context, op string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tracer.StartSpan(ctx, op)
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Event is a timestamped structured annotation on a span.
type Event struct {
	At  time.Time
	Msg string
}

// Attr is a key/value attribute on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation in a trace. All methods are safe on a nil
// receiver (no-ops), so call sites never need to check whether tracing
// is enabled.
type Span struct {
	tracer   *Tracer
	traceID  uint64
	spanID   uint64
	parentID uint64
	op       string
	start    time.Time
	// ids is the stream this span's descendants draw IDs from: the
	// tracer's root stream normally, or a branch-private stream when the
	// span was created by StartForkedChild.
	ids *idStream

	mu struct {
		sync.Mutex
		end      time.Time
		finished bool
		events   []Event
		attrs    []Attr
		children []*Span
	}
}

// Op returns the span's operation name.
func (s *Span) Op() string {
	if s == nil {
		return ""
	}
	return s.op
}

// TraceID returns the span's trace ID (0 for a no-op span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's ID (0 for a no-op span).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Eventf records a timestamped structured event on the span.
func (s *Span) Eventf(format string, args ...any) {
	if s == nil {
		return
	}
	at := s.tracer.clock.Now()
	s.mu.Lock()
	s.mu.events = append(s.mu.events, Event{At: at, Msg: fmt.Sprintf(format, args...)})
	s.mu.Unlock()
}

// SetAttr sets a key/value attribute, overwriting any prior value for
// the key.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.mu.attrs {
		if s.mu.attrs[i].Key == key {
			s.mu.attrs[i].Value = value
			return
		}
	}
	s.mu.attrs = append(s.mu.attrs, Attr{Key: key, Value: value})
}

// Attr returns the value for key and whether it is set.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.mu.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Attrs returns a copy of the span's attributes in set order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.mu.attrs...)
}

// Events returns a copy of the span's events in record order.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.mu.events...)
}

// Children returns a copy of the span's child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.mu.children...)
}

// Duration returns the span's duration: end−start once finished, and
// zero while still in flight.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.mu.finished {
		return 0
	}
	return s.mu.end.Sub(s.start)
}

// StartChild starts a child span without going through a context —
// used where a span handle is held directly (e.g. proxy connection
// migration, which runs outside any request context).
func (s *Span) StartChild(op string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newSpan(op, s.traceID, s.spanID, s, nil)
}

// StartForkedChild starts a child span whose descendants draw span IDs
// from an independent stream seeded deterministically from this span's
// stream. Branch-parallel code (the DistSender fan-out) creates one forked
// child per branch — in deterministic order, before launching goroutines —
// so every branch's subtree has reproducible IDs no matter how the
// goroutines interleave. The caller must also attach branches to the
// parent in deterministic order, which pre-creation guarantees.
func (s *Span) StartForkedChild(op string) *Span {
	if s == nil {
		return nil
	}
	src := s.ids
	if src == nil {
		src = s.tracer.ids
	}
	return s.tracer.newSpan(op, s.traceID, s.spanID, s, src.fork())
}

// maxChildren bounds the children a span retains. A long-lived root — a
// proxy connection adds one exchange subtree per statement — would
// otherwise hold every statement's trace until it closes. A child past the
// cap is still timed and feeds the per-operation histograms, but it is not
// linked into the tree; the recorder counts it in trace.children_dropped.
const maxChildren = 64

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	keep := len(s.mu.children) < maxChildren
	if keep {
		s.mu.children = append(s.mu.children, c)
	}
	s.mu.Unlock()
	if !keep {
		s.tracer.recorder.childrenDropped.Inc(1)
	}
}

// Finish ends the span. Finishing a root span hands the whole trace to
// the tracer's recorder; every finish feeds the per-operation duration
// histograms behind /debug/tracez. Finish is idempotent.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	end := s.tracer.clock.Now()
	s.mu.Lock()
	if s.mu.finished {
		s.mu.Unlock()
		return
	}
	s.mu.finished = true
	s.mu.end = end
	s.mu.Unlock()

	t := s.tracer
	t.mu.Lock()
	delete(t.mu.live, s.spanID)
	t.mu.Unlock()
	t.spansFinished.Inc(1)
	t.recorder.spanFinished(s, end.Sub(s.start), s.parentID == 0)
}
