package fixpoint

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/vet"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// EvalMode selects the fixpoint synchronization discipline.
type EvalMode int

const (
	// ModeBSP is the classical bulk-synchronous loop: every iteration ends
	// at a global barrier (the default, and the fallback when a query is
	// not certified safe for barrier relaxation).
	ModeBSP EvalMode = iota
	// ModeSSP is stale-synchronous-parallel execution: partitions advance
	// independently but no partition may run more than k rounds ahead of
	// the slowest partition that still has work (DistOptions.Staleness).
	ModeSSP
	// ModeAsync drops the staleness gate entirely: workers drain delta
	// inboxes until global quiescence.
	ModeAsync
)

// String implements fmt.Stringer.
func (m EvalMode) String() string {
	switch m {
	case ModeSSP:
		return "ssp"
	case ModeAsync:
		return "async"
	}
	return "bsp"
}

// ParseEvalMode parses a -mode flag value: "bsp", "async", or "ssp:k" with
// a non-negative staleness bound k ("ssp" alone means ssp:1).
func ParseEvalMode(s string) (EvalMode, int, error) {
	switch {
	case s == "" || s == "bsp":
		return ModeBSP, 0, nil
	case s == "async":
		return ModeAsync, 0, nil
	case s == "ssp":
		return ModeSSP, 1, nil
	case strings.HasPrefix(s, "ssp:"):
		k, err := strconv.Atoi(s[len("ssp:"):])
		if err != nil || k < 0 {
			return ModeBSP, 0, fmt.Errorf("invalid staleness bound %q (want ssp:k with k >= 0)", s)
		}
		return ModeSSP, k, nil
	}
	return ModeBSP, 0, fmt.Errorf("unknown evaluation mode %q (want bsp, ssp:k or async)", s)
}

// stalenessBound is the effective SSP bound: negatives clamp to 0 so a
// zero-valued DistOptions{Mode: ModeSSP} means the tightest gate, never an
// accidental async run.
func (o DistOptions) stalenessBound() int {
	if o.Staleness < 0 {
		return 0
	}
	return o.Staleness
}

// modeLabel names the mode a run actually executed under (Result.Mode).
func (o DistOptions) modeLabel() string {
	switch o.Mode {
	case ModeSSP:
		return "ssp(" + strconv.Itoa(o.stalenessBound()) + ")"
	case ModeAsync:
		return "async"
	}
	return "bsp"
}

// relaxedIneligible reports why a clique must not run barrier-relaxed, or
// "" when it may. Non-aggregate views accumulate under set union, which is
// trivially confluent: any delivery order reaches the same fixpoint. An
// aggregate view is safe only when vet certifies the aggregate premappable
// (PreM): then applying the monotonic aggregate to stale or reordered
// partial states can only produce values the fixpoint would eventually
// supersede, never a wrong final answer.
func relaxedIneligible(clique *analyze.Clique, plan *Plan) string {
	v := plan.View
	if !v.IsAgg() {
		return ""
	}
	if verdict := vet.CertifyClique(clique); verdict != vet.VerdictCertified {
		return "aggregate view " + v.Name + " is not PreM-certified for barrier-relaxed execution (vet: " + verdict.String() + ")"
	}
	return ""
}

// relaxedRound accumulates one round's telemetry across partitions. Rounds
// of different partitions interleave freely, so the runner buckets by the
// consuming partition's round index and emits the events once the region
// quiesces.
type relaxedRound struct {
	deltaRows, newKeys, improved int
	stale, superseded            int
	startNS, endNS               int64
	started                      bool
}

// relaxed is the shared barrier-relaxed evaluator: every plan shape
// (two-stage, combined, decomposed, shuffled) collapses onto one
// delta-routing kernel — merge the drained batch into the partition's
// state, derive the next delta, and route the output buckets — with the
// cluster's relaxed router supplying the staleness gate and quiescence
// detection. Per-iteration shuffle-volume telemetry is not sliced per
// round (rounds interleave, so byte attribution is ambiguous); the region
// totals still land in the cluster metrics.
func (x *execution) relaxed() (int, error) {
	c, tr := x.c, x.opt.Tracer
	x.mode = "dsn-" + x.opt.modeLabel()
	gate := -1 // async: no staleness gate
	if x.opt.Mode == ModeSSP {
		gate = x.opt.stalenessBound()
	}
	var fail failure

	var telMu sync.Mutex
	var rounds []relaxedRound
	record := func(round int64, d deltaBatch, stale, superseded int, t0, t1 int64) {
		telMu.Lock()
		for int64(len(rounds)) <= round {
			rounds = append(rounds, relaxedRound{})
		}
		r := &rounds[round]
		n, news, imp := countDelta(d)
		r.deltaRows += n
		r.newKeys += news
		r.improved += imp
		r.stale += stale
		r.superseded += superseded
		if !r.started || t0 < r.startNS {
			r.startNS = t0
			r.started = true
		}
		if t1 > r.endNS {
			r.endNS = t1
		}
		telMu.Unlock()
	}

	stats := c.RunRelaxed(cluster.RelaxedOptions{
		Name:      "fixpoint.relaxed",
		Parts:     x.parts,
		Owner:     c.DefaultOwner,
		Staleness: gate,
		Checkpoint: func(part int) func() {
			cp := x.state.Checkpoint(part)
			return func() { x.state.Restore(cp) }
		},
		Process: func(part, worker int, rows []types.Row, round int64, stale int) [][]types.Row {
			if fail.failed.Load() {
				// A guard already tripped: drain the remaining credit so the
				// region quiesces without doing further work.
				return nil
			}
			// A partition's round r merges its r-th batch and runs the next
			// map side, as the combined runner's iteration r does, so it
			// takes that iteration's guard before the merge mutates the
			// state. Other owners are still merging, so the row bound
			// extrapolates from this partition like the decomposed runner.
			if err := x.opt.guard(int(round), len(x.rows(part))*x.parts); err != nil {
				fail.set(err)
				return nil
			}
			var t0 int64
			if tr.Enabled() {
				t0 = tr.Now()
			}
			d := deltaBatch(x.state.Merge(part, rows))
			// Post-merge fault point: an executor dying after mutating the
			// cached state rolls back to the Checkpoint snapshot and replays
			// this processing step (Section 6.1), exactly like a BSP merge
			// task.
			c.ChaosPostMerge(worker)
			superseded := len(rows) - len(d.Rows)
			if superseded > 0 {
				c.Metrics.SupersededRows.Add(int64(superseded))
			}
			// A later round comes only if a batch is routed back here, so
			// the row bound is checked again on what this merge grew.
			if err := x.opt.guard(int(round), len(x.rows(part))*x.parts); err != nil {
				fail.set(err)
				return nil
			}
			var out [][]types.Row
			if !d.empty() {
				out = x.ws.run(c, x.kernels, d, part, worker)
			}
			if tr.Enabled() {
				record(round, d, stale, superseded, t0, tr.Now())
			}
			return out
		},
	}, x.seed)

	// Round 0 is the base-case merge, so the deepest clock exceeds the
	// iteration count by one — aligned with the BSP runners' convention.
	iters := max(int(stats.MaxClock)-1, 0)
	if err := fail.err(); err != nil {
		return iters, err
	}
	all := 0
	for i, r := range rounds {
		all += r.newKeys
		ev := trace.IterationEvent{
			Iter: i, Mode: x.mode,
			DeltaRows: r.deltaRows, AllRows: all,
			NewKeys: r.newKeys, Improved: r.improved,
			Relaxed: true, StaleRows: r.stale, SupersededRows: r.superseded,
			StartNS: r.startNS, EndNS: r.endNS,
		}
		if i == len(rounds)-1 {
			ev.PartRows = x.event(shuffleMark{}).PartRows
		}
		tr.EmitIteration(ev)
	}
	return iters, nil
}
