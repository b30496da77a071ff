package cluster

import (
	"sync"

	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// Barrier-relaxed execution: instead of iterating lockstep stages, each
// partition carries its own iteration clock and consumes delta batches from
// a per-partition inbox as they arrive. The staleness gate bounds how far a
// partition's clock may run ahead of the slowest partition that still has
// work (SSP(k)); with the gate off the region is fully asynchronous.
// Termination is a two-phase quiescence check rather than the BSP
// empty-delta-at-barrier test: a credit counter tracks every undelivered or
// in-flight batch (phase one: the count reaches zero only when no batch is
// pending anywhere and no worker is mid-processing, because outputs are
// credited before their inputs are debited), and every worker observes the
// zero under the router lock before exiting (phase two: all workers idle
// confirm it, and since nothing can recreate credit from zero, the decision
// is stable).
//
// The cost model mirrors RunStage where the same cost exists and drops only
// the barrier: batches crossing workers pay the full serialize/deserialize
// round trip (counted as shuffle + remote-fetch traffic, encoded at emit
// like the map-side shuffle write), same-worker batches are handed over in
// memory (the local handover a no-shuffle decomposed plan enjoys under
// BSP), and every processing step is charged the per-task launch cost (and
// its drained bytes the communication penalty) on the simulated clock.
// Simulated time contributed by the region is max over workers of that
// worker's total busy time — the sum-of-maxima the per-iteration barrier
// charges collapses to a single max-of-sums.

// RelaxedOptions parameterizes one barrier-relaxed fixpoint region.
type RelaxedOptions struct {
	// Name labels the region for tracing and chaos scoping (stage name).
	Name string
	// Parts is the number of partitions routed between.
	Parts int
	// Owner maps a partition to the worker that owns its state; all
	// processing for the partition runs on that worker's goroutine. It must
	// be a pure, allocation-free mapping: the router calls it on every
	// enqueue and pick.
	Owner func(part int) int
	// Staleness is the SSP bound k: a partition may run at most k rounds
	// ahead of the slowest partition that still has pending or in-flight
	// work. Negative means fully asynchronous (no gate).
	Staleness int
	// Process consumes one drained batch of rows for a partition at the
	// given round and returns output rows bucketed by destination
	// partition (nil when the fixpoint contributes nothing further). The
	// router takes its own copy of the output before the partition's next
	// round, so Process may reuse the buckets and their rows from then on.
	// stale is the number of consumed rows older than the BSP-fresh stamp
	// (already counted in Metrics.StaleReads; passed so callers can slice
	// the telemetry per round). It runs on the owner worker's goroutine,
	// never concurrently for the same partition.
	Process func(part, worker int, rows []types.Row, round int64, stale int) [][]types.Row
	// Checkpoint, when set under chaos, snapshots a partition before an
	// attempt and returns the rollback that undoes a failed attempt's
	// state mutations. Ignored when the injector is off.
	Checkpoint func(part int) func()
}

// RelaxedStats summarizes one relaxed region.
type RelaxedStats struct {
	// MaxClock is the deepest partition clock reached (rounds processed;
	// round 0 is the seed merge).
	MaxClock int64
	// MaxClockLead is the largest observed clock lead over the slowest
	// active partition at scheduling time — bounded by Staleness in SSP
	// mode (gate invariant), unbounded under async.
	MaxClockLead int64
	// Batches counts processing steps (drained inboxes), the relaxed
	// analog of tasks run.
	Batches int64
}

// relaxedBatch is one routed delta batch: a cross-worker batch is a range
// of its inbox's wire encoding (paid for at emit), a same-worker batch owns
// a private copy of the rows.
type relaxedBatch struct {
	rows     []types.Row // nil for an encoded batch
	off, end int         // an encoded batch's bytes in its inbox
	n        int
	// stamp is the producing partition's round (-1 for the driver seed);
	// consumption at round > stamp+1 is a stale read.
	stamp int64
}

// relaxedInbox is one partition's pending input: its batches and the wire
// encoding the cross-worker ones range over.
type relaxedInbox struct {
	batches []relaxedBatch
	bytes   []byte
}

// relaxedRouter is the shared state of one relaxed region. All routing
// state sits behind one mutex with a condition variable: workers block on
// it when the gate (or an empty inbox) leaves them nothing to run.
type relaxedRouter struct {
	q   *QueryContext
	opt RelaxedOptions
	sc  *stageChaos // nil when chaos is off

	mu   sync.Mutex
	cond *sync.Cond
	// guarded by mu
	inbox []relaxedInbox
	// spare[p] is partition p's second inbox, so no enqueue regrows one:
	// takeLocked swaps it in and completeLocked returns the drained one.
	// guarded by mu
	spare []relaxedInbox
	// guarded by mu
	clock []int64
	// guarded by mu
	inflight []bool
	// guarded by mu
	outstanding int64
	// guarded by mu
	maxLead int64
	// guarded by mu
	batches int64
}

// RunRelaxed executes one barrier-relaxed fixpoint region: the seed batches
// are routed to their partitions, and workers drain inboxes — gated by the
// staleness bound — until global quiescence. It contributes one stage's
// worth of metrics: max-of-sums simulated time, per-processing task counts,
// and the region's wall time.
func (q *QueryContext) RunRelaxed(opt RelaxedOptions, seed [][]types.Row) RelaxedStats {
	q.Metrics.StagesRun.Add(1)
	seq := q.stageSeq
	q.stageSeq++
	q.send.fit(q.cfg.Workers)

	rt := &relaxedRouter{
		q:        q,
		opt:      opt,
		inbox:    make([]relaxedInbox, opt.Parts),
		spare:    make([]relaxedInbox, opt.Parts),
		clock:    make([]int64, opt.Parts),
		inflight: make([]bool, opt.Parts),
	}
	rt.cond = sync.NewCond(&rt.mu)
	if q.chaos != nil {
		rt.sc = q.chaos.beginStage(opt.Name, seq)
	}

	spans := q.Tracer.SpansEnabled()
	var stageSpan trace.Span
	if spans {
		stageSpan = q.Tracer.BeginArgs("stage "+opt.Name, trace.TidDriver,
			trace.Arg{Key: "parts", Val: int64(opt.Parts)},
			trace.Arg{Key: "staleness", Val: int64(opt.Staleness)})
	}

	// Seed: the driver emits the base-case batches. Like the BSP seed
	// stage's driver fetch, they pay the wire round trip (encoded here,
	// decoded at drain) but are not shuffle traffic.
	rt.mu.Lock()
	for p, rows := range seed {
		if len(rows) == 0 {
			continue
		}
		rt.enqueueLocked(p, rows, -1, -1)
	}
	rt.mu.Unlock()

	start := startStopwatch()
	busy := make([]int64, q.cfg.Workers)
	if q.cfg.SequentialStages {
		rt.runSequential(busy)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < q.cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rt.runWorker(w, &busy[w], spans)
			}(w)
		}
		wg.Wait()
	}
	q.Metrics.StageWallNanos.Add(start.elapsedNanos())
	var slowest int64
	for _, b := range busy {
		if b > slowest {
			slowest = b
		}
	}
	q.Metrics.SimNanos.Add(slowest)
	stageSpan.End()

	rt.mu.Lock()
	stats := RelaxedStats{MaxClockLead: rt.maxLead, Batches: rt.batches}
	for _, c := range rt.clock {
		if c > stats.MaxClock {
			stats.MaxClock = c
		}
	}
	rt.mu.Unlock()
	q.Metrics.TasksRun.Add(stats.Batches)
	return stats
}

// enqueueLocked routes one output bucket to partition t, taking ownership of
// it: the producer reuses its output storage on its next round, which may
// well run before t drains its inbox. producerWorker -1 is the driver
// (seed); a bucket crossing workers is encoded immediately into t's inbox —
// the map-side shuffle write, where the bytes are counted — while a bucket
// staying on its producer's worker is handed over in memory, as a copy in
// one exactly-sized slab.
//
// The caller holds rt.mu.
func (rt *relaxedRouter) enqueueLocked(t int, rows []types.Row, stamp int64, producerWorker int) {
	b := relaxedBatch{n: len(rows), stamp: stamp}
	in := &rt.inbox[t]
	if producerWorker >= 0 && rt.opt.Owner(t) == producerWorker {
		// One exactly-sized slab per batch: what the cross-worker branch
		// pays as its encode.
		b.rows = types.CloneRows(rows)
	} else {
		b.off = len(in.bytes)
		in.bytes = types.AppendRows(in.bytes, rows)
		b.end = len(in.bytes)
		if producerWorker >= 0 {
			rt.q.Metrics.ShuffleRecords.Add(int64(len(rows)))
			rt.q.Metrics.ShuffleBytes.Add(int64(b.end - b.off))
		}
	}
	in.batches = append(in.batches, b)
	rt.outstanding++
	rt.cond.Broadcast()
}

// pickLocked chooses the next runnable partition for worker w: the
// lowest-clock owned partition with pending batches that passes the
// staleness gate. gated reports that some owned partition had work but was
// held back only by the gate — the relaxed analog of barrier wait.
//
// The caller holds rt.mu.
func (rt *relaxedRouter) pickLocked(w int) (part int, ok, gated bool) {
	// The gate compares against the slowest partition that still has work
	// (pending or in-flight): finished partitions keep frozen clocks and
	// must not hold the bound, or the region would deadlock. The minimum-
	// clock active partition always passes its own gate, so some worker can
	// always make progress.
	minActive := int64(-1)
	for p := range rt.inbox {
		if len(rt.inbox[p].batches) > 0 || rt.inflight[p] {
			if minActive < 0 || rt.clock[p] < minActive {
				minActive = rt.clock[p]
			}
		}
	}
	part = -1
	for p := range rt.inbox {
		if len(rt.inbox[p].batches) == 0 || rt.opt.Owner(p) != w {
			continue
		}
		if rt.opt.Staleness >= 0 && rt.clock[p]-minActive > int64(rt.opt.Staleness) {
			gated = true
			continue
		}
		if part < 0 || rt.clock[p] < rt.clock[part] {
			part = p
		}
	}
	if part < 0 {
		return -1, false, gated
	}
	if lead := rt.clock[part] - minActive; lead > rt.maxLead {
		rt.maxLead = lead
	}
	return part, true, false
}

// runWorker drains the partitions owned by worker w until quiescence.
// busyNanos accumulates this worker's processing time (the region's
// simulated-time contribution is the max across workers); stalls waiting on
// the staleness gate are counted as barrier wait.
func (rt *relaxedRouter) runWorker(w int, busyNanos *int64, spans bool) {
	var gateStall int64
	for {
		taken, part, round, stale, done := rt.claim(w, &gateStall)
		if done {
			rt.q.Metrics.BarrierWaitNanos.Add(gateStall)
			return
		}
		out, busy := rt.step(w, part, taken, round, stale, spans)
		*busyNanos += busy
		rt.deliver(part, out, round, taken, w)
	}
}

// claim blocks until worker w has a runnable partition (returning its
// drained batches) or the region is quiescent (done). Time stalled only by
// the staleness gate accumulates into gateStall.
func (rt *relaxedRouter) claim(w int, gateStall *int64) (taken relaxedInbox, part int, round int64, stale int, done bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for {
		if rt.outstanding == 0 {
			rt.cond.Broadcast()
			return relaxedInbox{}, -1, 0, 0, true
		}
		p, ok, gated := rt.pickLocked(w)
		if ok {
			taken, round, stale = rt.takeLocked(p)
			return taken, p, round, stale, false
		}
		if gated {
			sw := startStopwatch()
			rt.cond.Wait()
			*gateStall += sw.elapsedNanos()
		} else {
			rt.cond.Wait()
		}
	}
}

// deliver publishes one finished processing step: its output buckets are
// credited to their destinations, then the step's input credit is released.
func (rt *relaxedRouter) deliver(part int, out [][]types.Row, round int64, taken relaxedInbox, w int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for t, bucket := range out {
		if len(bucket) > 0 {
			rt.enqueueLocked(t, bucket, round, w)
		}
	}
	rt.completeLocked(part, round, taken)
}

// runSequential is the deterministic single-threaded scheduler: it always
// runs the lowest-clock eligible partition (lowest index on ties), driving
// the same router state on the caller's goroutine.
func (rt *relaxedRouter) runSequential(busy []int64) {
	spans := rt.q.Tracer.SpansEnabled()
	for {
		taken, part, round, stale, done := rt.claimSequential()
		if done {
			return
		}
		w := rt.opt.Owner(part)
		out, d := rt.step(w, part, taken, round, stale, spans)
		busy[w] += d
		rt.deliver(part, out, round, taken, w)
	}
}

// claimSequential picks the lowest-clock eligible partition across all
// workers (lowest index on ties), or reports quiescence. Unlike claim it
// never waits: with a single driver goroutine, pending work is always
// immediately runnable or the gate invariant is broken.
func (rt *relaxedRouter) claimSequential() (taken relaxedInbox, part int, round int64, stale int, done bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.outstanding == 0 {
		return relaxedInbox{}, -1, 0, 0, true
	}
	part = -1
	for w := 0; w < rt.q.cfg.Workers && part < 0; w++ {
		if p, ok, _ := rt.pickLocked(w); ok {
			part = p
		}
	}
	if part < 0 {
		// Every pending partition is gated — impossible, since the
		// minimum-clock active partition passes its own gate.
		panic("cluster: relaxed scheduler stuck with pending work")
	}
	taken, round, stale = rt.takeLocked(part)
	return taken, part, round, stale, false
}

// takeLocked claims partition part's inbox for processing at the
// partition's current round. Its batches stay counted in outstanding until
// completeLocked — the credit that keeps quiescence detection sound — and
// the partition is marked in-flight so its clock keeps holding the gate.
// The partition's spare, batch list and bytes, becomes its inbox until
// completeLocked.
//
// The caller holds rt.mu.
func (rt *relaxedRouter) takeLocked(part int) (relaxedInbox, int64, int) {
	taken := rt.inbox[part]
	rt.inbox[part], rt.spare[part] = rt.spare[part], relaxedInbox{}
	rt.inflight[part] = true
	round := rt.clock[part]
	stale := 0
	for _, b := range taken.batches {
		if round > b.stamp+1 {
			stale += b.n
		}
	}
	if stale > 0 {
		rt.q.Metrics.StaleReads.Add(int64(stale))
	}
	return taken, round, stale
}

// completeLocked publishes a finished processing step: the partition's
// clock advances, its in-flight mark clears, and the consumed batches'
// credit is released — strictly after the step's own outputs were credited
// by enqueueLocked, so outstanding can only reach zero at true quiescence.
// The drained inbox, emptied, becomes the partition's spare: drainRows
// decoded its bytes into rows of their own.
//
// The caller holds rt.mu.
func (rt *relaxedRouter) completeLocked(part int, round int64, taken relaxedInbox) {
	rt.clock[part] = round + 1
	rt.inflight[part] = false
	rt.outstanding -= int64(len(taken.batches))
	clear(taken.batches)
	rt.spare[part] = relaxedInbox{batches: taken.batches[:0], bytes: taken.bytes[:0]}
	rt.batches++
	rt.cond.Broadcast()
}

// step drains and processes one claimed inbox on worker w. It returns the
// output and the worker's busy time for the step: the measured time plus
// the modelled launch cost and communication penalty.
func (rt *relaxedRouter) step(w, part int, taken relaxedInbox, round int64, stale int, spans bool) ([][]types.Row, int64) {
	sw := startStopwatch()
	rows, penalty := rt.drainRows(taken)
	out := rt.process(w, part, rows, round, stale, spans)
	return out, sw.elapsedNanos() + rt.q.cfg.TaskOverheadNanos + penalty
}

// drainRows materializes a drained inbox: encoded batches pay the
// deserialize half of the round trip into rows of their own, and return
// the configured communication penalty for their bytes; local batches
// count as local fetches.
func (rt *relaxedRouter) drainRows(taken relaxedInbox) ([]types.Row, int64) {
	total := 0
	for _, b := range taken.batches {
		total += b.n
	}
	out := make([]types.Row, 0, total)
	var penalty int64
	for _, b := range taken.batches {
		if b.rows != nil {
			rt.q.Metrics.LocalFetchRows.Add(int64(b.n))
			out = append(out, b.rows...)
			continue
		}
		buf := taken.bytes[b.off:b.end]
		rt.q.Metrics.RemoteFetchBytes.Add(int64(len(buf)))
		penalty += rt.q.cfg.ShufflePenaltyNanosPerByte * int64(len(buf))
		var err error
		out, err = types.DecodeRowsAppend(out, buf)
		if err != nil {
			panic("cluster: relaxed wire corruption: " + err.Error())
		}
	}
	return out, penalty
}

// process runs one drained batch through the region's Process callback,
// under chaos with the bounded attempt/rollback loop.
func (rt *relaxedRouter) process(w, part int, rows []types.Row, round int64, stale int, spans bool) [][]types.Row {
	if rt.sc == nil {
		if spans {
			s := rt.q.Tracer.BeginArgs(rt.opt.Name, trace.TidWorker(w),
				trace.Arg{Key: "part", Val: int64(part)},
				trace.Arg{Key: "round", Val: round})
			defer s.End()
		}
		return rt.opt.Process(part, w, rows, round, stale)
	}
	// Chaos decisions key on the consuming partition's round, not the
	// region-level stage occurrence: a schedule pinned to Occurrence o hits
	// round o here and pass o of the equivalent BSP loop, so straggler/kill
	// schedules stay meaningful across evaluation modes. The sequence seed
	// is varied per round for the same reason.
	sc := &stageChaos{inj: rt.sc.inj, name: rt.sc.name, seq: rt.sc.seq + int(round)*numStageSeqStride, occ: int(round)}
	var rollback func()
	if rt.opt.Checkpoint != nil {
		rollback = rt.opt.Checkpoint(part)
	}
	for attempt := 0; ; attempt++ {
		out, ok := rt.processAttempt(sc, w, part, rows, round, stale, attempt, spans)
		if ok {
			return out
		}
		rt.q.Metrics.TaskRetries.Add(1)
		if rollback != nil {
			rollback()
			rt.q.Metrics.RecoveredIterations.Add(1)
		}
	}
}

// numStageSeqStride spaces the per-round chaos sequence seeds so rounds of
// one relaxed region draw independent rate decisions.
const numStageSeqStride = 7919

// processAttempt runs one attempt of a relaxed processing step under the
// injector, mirroring runTaskAttempt: fault panics are recovered and report
// failure; real panics propagate.
func (rt *relaxedRouter) processAttempt(sc *stageChaos, w, part int, rows []types.Row, round int64, stale, attempt int, spans bool) (out [][]types.Row, ok bool) {
	q := rt.q
	inj := sc.inj
	inj.ctx[w] = chaosTaskCtx{sc: sc, part: part, attempt: attempt}
	defer func() {
		inj.ctx[w] = chaosTaskCtx{}
		r := recover()
		if r == nil {
			return
		}
		fp, isFault := r.(faultPanic)
		if !isFault {
			panic(r)
		}
		out, ok = nil, false
		if q.Tracer.SpansEnabled() {
			q.Tracer.Instant("fault "+fp.kind.String(), trace.TidWorker(w),
				trace.Arg{Key: "part", Val: int64(part)},
				trace.Arg{Key: "attempt", Val: int64(attempt)})
		}
	}()
	if spans {
		s := q.Tracer.BeginArgs(rt.opt.Name, trace.TidWorker(w),
			trace.Arg{Key: "part", Val: int64(part)},
			trace.Arg{Key: "round", Val: round},
			trace.Arg{Key: "attempt", Val: int64(attempt)})
		defer s.End()
	}
	if attempt > 0 {
		// A replayed attempt re-reads its drained input — wasted work the
		// fault-free schedule would not have paid.
		q.Metrics.RowsReplayed.Add(int64(len(rows)))
	}
	if sc.roll(part, attempt, FaultStraggler) {
		straggle(inj.cfg.StragglerOps)
	}
	if sc.roll(part, attempt, FaultWorkerLoss) {
		inj.invalidateWorker(w)
		panic(faultPanic{kind: FaultWorkerLoss})
	}
	if sc.roll(part, attempt, FaultTaskStart) {
		panic(faultPanic{kind: FaultTaskStart})
	}
	if sc.roll(part, attempt, FaultFetch) {
		panic(faultPanic{kind: FaultFetch})
	}
	return rt.opt.Process(part, w, rows, round, stale), true
}
