package cluster

import (
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/trace"
)

// The deterministic fault injector. The paper's recovery story (Section 6.1)
// is that SetRDD (here State) gives up lineage, so the accumulated *all*
// relation is its own checkpoint and a failure replays only the current iteration's job. The
// injector makes that path executable: it kills task attempts at the
// boundaries where a real cluster loses work (task launch, shuffle fetch,
// mid-task executor loss) and RunStage replays the attempt after invoking the
// task's Rollback — the engine-supplied partition restore.
//
// Every decision is a pure function of (config seed, stage sequence,
// partition, attempt, fault kind). No wall clock, no global rand, and no
// dependence on which worker the task landed on, so a chaos run replays the
// identical fault schedule every time — which is what lets the differential
// harness assert bit-identical results against the fault-free run.

// FaultKind enumerates the injectable faults.
type FaultKind uint8

const (
	// FaultTaskStart kills the attempt before the task body runs — a task
	// that never launched (scheduler RPC lost, executor rejected it).
	FaultTaskStart FaultKind = iota
	// FaultWorkerLoss simulates losing the executor mid-attempt: the
	// worker's broadcast cache blocks are invalidated (they rebuild lazily
	// from the retained wire, paying the broadcast bytes again) and the
	// attempt dies.
	FaultWorkerLoss
	// FaultFetch kills the attempt at the shuffle-fetch boundary, before
	// any bucket is consumed — a failed shuffle block fetch.
	FaultFetch
	// FaultPostMerge kills the attempt after the engine merged into cached
	// state but before it published output — the case that exercises
	// checkpoint rollback rather than plain replay.
	FaultPostMerge
	// FaultStraggler does not kill anything: the attempt spins extra real
	// CPU (straggle), modelling a slow executor. It surfaces in SimNanos.
	FaultStraggler

	numFaultKinds
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultTaskStart:
		return "task-start"
	case FaultWorkerLoss:
		return "worker-loss"
	case FaultFetch:
		return "fetch"
	case FaultPostMerge:
		return "post-merge"
	case FaultStraggler:
		return "straggler"
	}
	return "unknown"
}

// ChaosEvent pins one fault to a specific decision point, independent of the
// probabilistic rate — the way tests script "kill partition 2's first
// attempt of the third map pass" deterministically.
type ChaosEvent struct {
	// Stage matches the RunStage name; empty matches every stage.
	Stage string
	// Occurrence is the 0-based count of stages with this name seen so far
	// (pass 3 of "fixpoint.shufflemap" is Occurrence 2); -1 matches all.
	Occurrence int
	// Part is the task's partition.
	Part int
	// Attempt is the 0-based attempt the fault fires on.
	Attempt int
	// Kind is the fault to inject.
	Kind FaultKind
}

// ChaosConfig configures the fault injector. The zero value disables it.
type ChaosConfig struct {
	// Seed drives the probabilistic schedule; two runs with the same seed,
	// rate and workload inject the same faults.
	Seed int64
	// Rate is the per-(decision point) fault probability in [0, 1). Each
	// task attempt exposes one decision point per fault kind.
	Rate float64
	// MaxAttempts bounds the retry loop: the injector never fires on the
	// last attempt, so every task eventually succeeds. Defaults to 3.
	MaxAttempts int
	// StragglerOps is the extra CPU a straggler really spins (the relaxed
	// scheduler reacts to real timing). Defaults to 50000 hash-loop rounds,
	// about 90µs on a 2-vCPU x86-64 host at go1.24.
	StragglerOps int
	// Schedule pins additional deterministic faults on top of Rate.
	Schedule []ChaosEvent
}

// Enabled reports whether this config injects anything.
func (c ChaosConfig) Enabled() bool { return c.Rate > 0 || len(c.Schedule) > 0 }

// injector holds the runtime state of an enabled chaos config. It lives on
// the QueryContext behind a single nil check, so a disabled injector costs
// one predictable branch on the stage and fetch hot paths and nothing else
// (pinned by TestDisabledInjectorZeroAllocs). Each query gets its own
// injector, so the fault schedule depends only on the query's own stage
// sequence.
type injector struct {
	cfg       ChaosConfig
	seed      uint64
	threshold uint64 // Rate mapped onto the uint64 hash range
	// ctx[w] is the chaos context of the task currently running on worker
	// w. Each worker's queue drains on one goroutine and driver-side code
	// passes worker -1, so the slots are data-race free without locks.
	ctx []chaosTaskCtx
	// stageRuns counts occurrences per stage name (driver-side only).
	stageRuns map[string]int
	// broadcasts registers live broadcasts for worker-loss invalidation.
	// Appended driver-side between stages; read by worker goroutines during
	// a stage — the stage barrier orders the two.
	broadcasts []*Broadcast
}

type chaosTaskCtx struct {
	sc      *stageChaos
	part    int
	attempt int
}

// stageChaos scopes injector decisions to one RunStage call.
type stageChaos struct {
	inj  *injector
	name string
	seq  int
	occ  int
}

func newInjector(cfg ChaosConfig, workers int) *injector {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.StragglerOps <= 0 {
		cfg.StragglerOps = 50000
	}
	inj := &injector{
		cfg:       cfg,
		seed:      chaosMix(uint64(cfg.Seed) ^ 0x9e3779b97f4a7c15),
		ctx:       make([]chaosTaskCtx, workers),
		stageRuns: make(map[string]int),
	}
	if cfg.Rate > 0 {
		if cfg.Rate >= 1 {
			inj.threshold = ^uint64(0)
		} else {
			inj.threshold = uint64(cfg.Rate * float64(1<<63) * 2)
		}
	}
	return inj
}

// beginStage opens a per-stage decision scope. Called by RunStage on the
// driver before any task runs.
func (inj *injector) beginStage(name string, seq int) *stageChaos {
	occ := inj.stageRuns[name]
	inj.stageRuns[name]++
	return &stageChaos{inj: inj, name: name, seq: seq, occ: occ}
}

// roll decides whether kind fires for (part, attempt) in this stage. Rate
// decisions hash (seed, stage sequence, part, attempt, kind) — not the
// worker, whose identity depends on placement policy — and never fire on the
// final attempt, keeping recovery bounded. Scheduled events fire regardless
// of rate at exactly their pinned point.
func (sc *stageChaos) roll(part, attempt int, kind FaultKind) bool {
	inj := sc.inj
	if inj.threshold != 0 && attempt < inj.cfg.MaxAttempts-1 {
		x := inj.seed
		x ^= uint64(sc.seq)*0x9e3779b97f4a7c15 + uint64(part)*0xbf58476d1ce4e5b9
		x += uint64(attempt)*0x94d049bb133111eb + uint64(kind)
		if chaosMix(x) < inj.threshold {
			return true
		}
	}
	for _, ev := range inj.cfg.Schedule {
		if (ev.Stage == "" || ev.Stage == sc.name) &&
			(ev.Occurrence < 0 || ev.Occurrence == sc.occ) &&
			ev.Part == part && ev.Attempt == attempt && ev.Kind == kind {
			return true
		}
	}
	return false
}

// taskCtx returns the chaos context of the task currently running on worker
// w, or nil when chaos is off (a nil injector), w is the driver (-1) or no
// chaos task is active there.
func (inj *injector) taskCtx(w int) *chaosTaskCtx {
	if inj == nil || w < 0 || w >= len(inj.ctx) || inj.ctx[w].sc == nil {
		return nil
	}
	return &inj.ctx[w]
}

// fetchPoint may kill the running task at the shuffle-fetch boundary. Fires
// before any bucket is consumed, so the replay re-fetches pristine buckets.
func (inj *injector) fetchPoint(onWorker int) {
	if ctx := inj.taskCtx(onWorker); ctx != nil && ctx.sc.roll(ctx.part, ctx.attempt, FaultFetch) {
		panic(faultPanic{kind: FaultFetch})
	}
}

// replayRows counts rows the running task re-reads on a retry attempt —
// wasted work a fault-free run would not have paid.
func (inj *injector) replayRows(m *Metrics, onWorker, n int) {
	if ctx := inj.taskCtx(onWorker); ctx != nil && ctx.attempt > 0 {
		m.RowsReplayed.Add(int64(n))
	}
}

// invalidateWorker drops the worker's broadcast cache blocks; they rebuild
// lazily from the retained wire on next access.
func (inj *injector) invalidateWorker(w int) {
	for _, b := range inj.broadcasts {
		b.invalidate(w)
	}
}

// faultPanic is the sentinel the injector throws. The retry loop recovers
// exactly this type and replays the attempt; any other panic is a real bug
// and propagates.
type faultPanic struct{ kind FaultKind }

// ChaosEnabled reports whether the query runs with an active injector.
// Engines use it to decide whether stage tasks need checkpoints/Rollbacks.
func (q *QueryContext) ChaosEnabled() bool { return q.chaos != nil }

// ChaosPostMerge is the fault point engines place between merging a batch
// into cached state and deriving output from the merge. A fault here leaves
// the partition dirty, so recovery must roll the state back to the stage
// checkpoint before replaying — the path that proves the Section 6.1
// "all relation is its own checkpoint" argument. No-op (one nil check) when
// chaos is off or the caller is not a chaos-managed task — the disabled-
// injector fast path TestDisabledInjectorZeroAllocs pins.
func (q *QueryContext) ChaosPostMerge(worker int) {
	if ctx := q.chaos.taskCtx(worker); ctx != nil && ctx.sc.roll(ctx.part, ctx.attempt, FaultPostMerge) {
		panic(faultPanic{kind: FaultPostMerge})
	}
}

// runTaskChaos executes one task under the injector: attempts run until one
// survives every fault point. A killed attempt rolls the task's partition
// back (Task.Rollback, when set) and is counted as a retry; the injector's
// attempt bound guarantees termination.
func (q *QueryContext) runTaskChaos(sc *stageChaos, t Task, w int, spans bool, name string) {
	for attempt := 0; ; attempt++ {
		if q.runTaskAttempt(sc, t, w, attempt, spans, name) {
			return
		}
		q.Metrics.TaskRetries.Add(1)
		if t.Rollback != nil {
			t.Rollback()
		}
	}
}

// runTaskAttempt runs one attempt, reporting whether it completed. Fault
// panics are recovered here; anything else propagates.
func (q *QueryContext) runTaskAttempt(sc *stageChaos, t Task, w, attempt int, spans bool, name string) (ok bool) {
	inj := sc.inj
	inj.ctx[w] = chaosTaskCtx{sc: sc, part: t.Part, attempt: attempt}
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
		ok = false
		if q.Tracer.SpansEnabled() {
			q.Tracer.Instant("fault "+fp.kind.String(), trace.TidWorker(w),
				trace.Arg{Key: "part", Val: int64(t.Part)},
				trace.Arg{Key: "attempt", Val: int64(attempt)})
		}
	}()
	if spans {
		s := q.Tracer.BeginArgs(name, trace.TidWorker(w),
			trace.Arg{Key: "part", Val: int64(t.Part)},
			trace.Arg{Key: "attempt", Val: int64(attempt)})
		defer s.End()
	}
	if sc.roll(t.Part, attempt, FaultStraggler) {
		straggle(inj.cfg.StragglerOps)
	}
	if sc.roll(t.Part, attempt, FaultWorkerLoss) {
		inj.invalidateWorker(w)
		panic(faultPanic{kind: FaultWorkerLoss})
	}
	if sc.roll(t.Part, attempt, FaultTaskStart) {
		panic(faultPanic{kind: FaultTaskStart})
	}
	t.Run(w)
	return true
}

// chaosMix is the splitmix64 finalizer (same construction as the row-key
// hash finalizer in internal/types): a cheap bijection that spreads the
// structured (seq, part, attempt, kind) tuples uniformly over uint64 so the
// rate threshold compares against an unbiased value.
func chaosMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// straggle spins a tiny hash loop for ops iterations: the real delay of a
// straggler attempt. It is the simulator's only deliberate spin; every other
// modelled cost is charged to the simulated clock instead.
func straggle(ops int) {
	h := uint64(1469598103934665603)
	for i := 0; i < ops; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	straggleSink.Store(h) // defeat dead-code elimination
}

// straggleSink keeps the compiler from eliminating straggle's loop. Shared
// yet lock-free by design: an atomic that is only ever written, never read,
// so no lock could change any observable behaviour.
var straggleSink atomic.Uint64
