// Package trace is the engine's structured execution tracer: spans for
// driver phases, stages and tasks, plus per-iteration fixpoint telemetry
// (delta sizes, all-relation growth, shuffle volume, partition skew).
//
// Like the cluster's metrics stopwatch, this package is the observability
// side of the host-clock boundary: its readings feed traces and EXPLAIN
// ANALYZE output, never results, placement or iteration counts. It is
// therefore deliberately outside the deterministic package set that
// TestSourceRules keeps clock-free — the engine packages that call into it
// stay clock-free, and the clock reads live in exactly one place (clock.go).
//
// A nil *Tracer is the disabled tracer: every method is safe to call on it
// and costs one nil check, no allocation. Hot paths that must stay
// allocation-free when tracing is off (the cluster's per-task loop) call
// SpansEnabled before building any event data.
package trace

import "sync"

// Level selects how much a Tracer records.
type Level int

const (
	// LevelIterations records fixpoint iteration events only. Span calls
	// are no-ops, so a run traced at this level pays one mutex append per
	// iteration — cheap enough to leave on during benchmarking.
	LevelIterations Level = iota
	// LevelSpans additionally records driver-phase, stage and task spans.
	LevelSpans
)

// Track ids (Chrome trace "tid"s). The driver is track 0, workers count
// from 1, and iteration events render on their own counter-style track.
const (
	TidDriver     = 0
	TidIterations = 1000000
)

// TidWorker maps a simulated worker index to its track id (-1, the driver,
// maps to the driver track).
func TidWorker(w int) int {
	if w < 0 {
		return TidDriver
	}
	return w + 1
}

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val int64
}

// Event is one recorded trace event, timestamped in nanoseconds since the
// tracer was created. Phase follows the Chrome trace-event vocabulary:
// 'X' complete span, 'B'/'E' begin/end pair, 'C' counter, 'i' instant.
type Event struct {
	Name  string
	Phase byte
	// Qid is the query ID of the per-query tracer handle that recorded the
	// event (see ForQuery); 0 for events recorded on the root handle. The
	// Chrome export renders each query as its own process, so interleaved
	// concurrent-query traces stay distinguishable.
	Qid  int64
	Tid  int
	TS   int64
	Dur  int64 // 'X' only
	Args []Arg
}

// IterationEvent is the per-iteration fixpoint telemetry record. Iteration
// 0 is the base-case (seed) merge; iterations count from 1 after that, so
// the series aligns with the cluster's Iterations metric across execution
// modes.
type IterationEvent struct {
	// Iter is the iteration number (0 = base-case merge).
	Iter int
	// Mode names the evaluator that produced the event (dsn-two-stage,
	// dsn-combined, dsn-decomposed, sql-naive, local, local-naive).
	Mode string
	// DeltaRows counts the delta rows produced by this iteration's merge.
	DeltaRows int
	// AllRows is the all-relation size after the merge.
	AllRows int
	// NewKeys counts delta entries whose tuple/group first appeared this
	// iteration; Improved counts entries whose aggregate value changed on
	// an existing group (DeltaRows = NewKeys + Improved).
	NewKeys  int
	Improved int
	// ShuffleBytes / ShuffleRecords are the shuffle volume written during
	// this iteration (counter deltas, not totals).
	ShuffleBytes   int64
	ShuffleRecords int64
	// PartRows holds the per-partition all-relation row counts after the
	// merge — the skew profile.
	PartRows []int
	// Qid is the query ID of the per-query tracer handle that recorded the
	// event (0 on the root handle), so concurrent queries' convergence
	// series separate cleanly.
	Qid int64
	// Relaxed marks events from barrier-relaxed (SSP/async) execution,
	// where the staleness telemetry below is meaningful; BSP events leave
	// it false and render those columns as absent.
	Relaxed bool
	// StaleRows counts rows consumed from delta batches older than the
	// BSP-fresh stamp during this round (relaxed modes only).
	StaleRows int
	// SupersededRows counts incoming rows the merge discarded because a
	// fresher derivation already covered them — the wasted work barrier
	// relaxation trades for the removed barrier (relaxed modes only).
	SupersededRows int
	// StartNS/EndNS bound the iteration on the trace clock.
	StartNS, EndNS int64
}

// Skew returns the max/mean ratio of the per-partition row counts
// (1.0 = perfectly balanced; 0 when the event carries no partition data).
func (e *IterationEvent) Skew() float64 {
	if len(e.PartRows) == 0 {
		return 0
	}
	total, max := 0, 0
	for _, n := range e.PartRows {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(e.PartRows))
	return float64(max) / mean
}

// Tracer records execution events. It is safe for concurrent use by the
// driver and worker goroutines; a nil Tracer is the disabled tracer.
//
// A Tracer is a handle onto a shared event log: ForQuery derives per-query
// handles that stamp their query ID onto every event while appending to the
// same log, so one engine-attached tracer collects interleaved concurrent
// queries without losing attribution.
type Tracer struct {
	level Level
	start startRef
	// qid stamps every event this handle records (0 on the root handle).
	qid int64
	log *eventLog
}

// eventLog is the shared append-only store behind one tracer and all of its
// per-query handles.
type eventLog struct {
	// mu guards the event logs; every append and read locks it.
	mu sync.Mutex
	// guarded by mu
	events []Event
	// guarded by mu
	iters []IterationEvent
}

// New creates a full tracer: spans and iteration events.
func New() *Tracer {
	return &Tracer{level: LevelSpans, start: startClock(), log: &eventLog{}}
}

// NewIterationsOnly creates a tracer that records iteration events but
// drops spans — the mode the benchmark runner uses so convergence curves
// come out of measured runs without per-task tracing overhead.
func NewIterationsOnly() *Tracer {
	return &Tracer{level: LevelIterations, start: startClock(), log: &eventLog{}}
}

// ForQuery derives a per-query handle: same level, clock base and event log,
// with qid stamped onto every event the handle records. Nil-safe (the
// disabled tracer derives itself). The cluster calls it once per
// QueryContext, so the one allocation amortizes over the query.
func (t *Tracer) ForQuery(qid int64) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{level: t.level, start: t.start, qid: qid, log: t.log}
}

// Enabled reports whether the tracer records anything (nil = disabled).
func (t *Tracer) Enabled() bool { return t != nil }

// SpansEnabled reports whether span events are recorded. Callers that
// would allocate to build span data must check this first.
func (t *Tracer) SpansEnabled() bool { return t != nil && t.level >= LevelSpans }

// Span is an in-flight span returned by Begin; its End records the event.
// The zero Span (from a disabled tracer) is a no-op.
type Span struct {
	t    *Tracer
	name string
	tid  int
	args []Arg
	t0   int64
}

// Begin opens a span on the given track. On a disabled tracer it returns
// the zero Span without reading the clock or allocating.
func (t *Tracer) Begin(name string, tid int) Span {
	if !t.SpansEnabled() {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, t0: t.sinceStart()}
}

// BeginArgs is Begin with annotations attached to the completed span. The
// body allocates nothing; the implicit args slice is built (and paid for)
// at call sites, which gate on SpansEnabled first.
func (t *Tracer) BeginArgs(name string, tid int, args ...Arg) Span {
	if !t.SpansEnabled() {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, args: args, t0: t.sinceStart()}
}

// End completes the span and records it as an 'X' event.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := s.t.sinceStart()
	s.t.append(Event{Name: s.name, Phase: 'X', Tid: s.tid, TS: s.t0, Dur: now - s.t0, Args: s.args})
}

// IterSpan brackets one fixpoint iteration; End attaches the telemetry.
// The zero IterSpan is a no-op.
type IterSpan struct {
	t    *Tracer
	iter int
	t0   int64
}

// BeginIteration opens iteration telemetry. Unlike Begin it works at every
// level — iteration events are the tracer's reason to exist.
func (t *Tracer) BeginIteration(iter int) IterSpan {
	if t == nil {
		return IterSpan{}
	}
	return IterSpan{t: t, iter: iter, t0: t.sinceStart()}
}

// End records the iteration event: the telemetry row plus, on the
// iteration track, a B/E span pair and counter samples for the convergence
// curves. ev.Iter, StartNS and EndNS are filled from the span.
func (s IterSpan) End(ev IterationEvent) {
	if s.t == nil {
		return
	}
	ev.Iter = s.iter
	ev.StartNS, ev.EndNS = s.t0, s.t.sinceStart()
	// Once per fixpoint iteration: the telemetry row's allocation amortizes
	// over the iteration's work.
	s.t.recordIteration(ev)
}

// Now returns nanoseconds since the tracer started — the timestamp base
// every event uses. Barrier-relaxed evaluators stamp per-round telemetry
// with it as rounds complete and emit the events later via EmitIteration
// (rounds of different partitions interleave, so no span brackets them).
// Zero on a disabled tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.sinceStart()
}

// EmitIteration records a fully built iteration event whose Iter, StartNS
// and EndNS the caller has already stamped (see Now). A no-op on a disabled
// tracer.
func (t *Tracer) EmitIteration(ev IterationEvent) {
	if t == nil {
		return
	}
	t.recordIteration(ev)
}

// recordIteration appends the telemetry row plus, on the iteration track,
// a B/E span pair and counter samples for the convergence curves.
func (t *Tracer) recordIteration(ev IterationEvent) {
	name := "iteration " + itoa(ev.Iter)
	ev.Qid = t.qid
	t.log.mu.Lock()
	t.log.iters = append(t.log.iters, ev)
	if t.level >= LevelSpans {
		t.log.events = append(t.log.events,
			Event{Name: name, Phase: 'B', Qid: t.qid, Tid: TidIterations, TS: ev.StartNS},
			Event{Name: name, Phase: 'E', Qid: t.qid, Tid: TidIterations, TS: ev.EndNS},
			Event{Name: "delta rows", Phase: 'C', Qid: t.qid, Tid: TidIterations, TS: ev.EndNS, Args: []Arg{{"rows", int64(ev.DeltaRows)}}},
			Event{Name: "all rows", Phase: 'C', Qid: t.qid, Tid: TidIterations, TS: ev.EndNS, Args: []Arg{{"rows", int64(ev.AllRows)}}},
			Event{Name: "shuffle bytes/iter", Phase: 'C', Qid: t.qid, Tid: TidIterations, TS: ev.EndNS, Args: []Arg{{"bytes", ev.ShuffleBytes}}},
		)
	}
	t.log.mu.Unlock()
}

// EndAt is End with the iteration number resolved late — for evaluators
// (the decomposed runner) that only learn the count when their single
// stage completes.
func (s IterSpan) EndAt(iter int, ev IterationEvent) {
	if s.t == nil {
		return
	}
	s.iter = iter
	s.End(ev)
}

// Instant records a point event on a track.
func (t *Tracer) Instant(name string, tid int, args ...Arg) {
	if !t.SpansEnabled() {
		return
	}
	t.append(Event{Name: name, Phase: 'i', Tid: tid, TS: t.sinceStart(), Args: args})
}

func (t *Tracer) append(e Event) {
	e.Qid = t.qid
	t.log.mu.Lock()
	t.log.events = append(t.log.events, e)
	t.log.mu.Unlock()
}

// Events returns a copy of the recorded events (all queries' handles share
// one log, so a root handle sees every query's events).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return append([]Event(nil), t.log.events...)
}

// Iterations returns a copy of the recorded iteration telemetry, in
// recording order.
func (t *Tracer) Iterations() []IterationEvent {
	if t == nil {
		return nil
	}
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	return append([]IterationEvent(nil), t.log.iters...)
}

// SpanStat aggregates the 'X' spans sharing one name.
type SpanStat struct {
	Name    string
	Count   int
	TotalNS int64
}

// SummarizeSpans aggregates complete ('X') spans by name, in first-seen
// order. A nil pred admits every span.
func SummarizeSpans(events []Event, pred func(Event) bool) []SpanStat {
	idx := map[string]int{}
	var out []SpanStat
	for _, e := range events {
		if e.Phase != 'X' || (pred != nil && !pred(e)) {
			continue
		}
		i, ok := idx[e.Name]
		if !ok {
			i = len(out)
			idx[e.Name] = i
			out = append(out, SpanStat{Name: e.Name})
		}
		out[i].Count++
		out[i].TotalNS += e.Dur
	}
	return out
}

// itoa is strconv.Itoa for small non-negative ints without the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
