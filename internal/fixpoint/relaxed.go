package fixpoint

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// runRelaxed is the shared barrier-relaxed evaluator: every plan shape
// (two-stage, combined, decomposed, shuffled) collapses onto one
// delta-routing kernel — merge the drained batch into the partition's
// state, derive the next delta, and route the output buckets — with the
// cluster's relaxed router supplying the staleness gate and quiescence
// detection. Per-iteration shuffle-volume telemetry is not sliced per
// round (rounds interleave, so byte attribution is ambiguous); the region
// totals still land in the cluster metrics.
func runRelaxed(ws *workspace, state *viewState, kernels []*ruleKernel, seed [][]types.Row, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	plan, parts := ws.plan, state.partitions()
	tr := opt.Tracer
	traceOn := tr.Enabled()

	gate := -1 // async: no staleness gate
	if opt.Mode == ModeSSP {
		gate = opt.stalenessBound()
	}

	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		failed.Store(true)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

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
		Parts:     parts,
		Owner:     state.owner,
		Staleness: gate,
		Checkpoint: func(part int) func() {
			cp := state.checkpoint(part)
			return func() { state.restore(cp) }
		},
		Process: func(part, worker int, rows []types.Row, round int64, stale int) [][]types.Row {
			if failed.Load() {
				// A guard already tripped: drain the remaining credit so the
				// region quiesces without doing further work.
				return nil
			}
			// Relaxed execution has no global barrier; each partition round
			// is its own iteration boundary, so a cancelled context stops the
			// region before this round's merge mutates the state.
			if err := checkCancel(opt.Context, int(round)); err != nil {
				fail(err)
				return nil
			}
			var t0 int64
			if traceOn {
				t0 = tr.Now()
			}
			d := state.merge(part, rows)
			// Post-merge fault point: an executor dying after mutating the
			// cached state rolls back to the Checkpoint snapshot and replays
			// this processing step (Section 6.1), exactly like a BSP merge
			// task.
			c.ChaosPostMerge(worker)
			superseded := len(rows) - len(d.Rows)
			if superseded > 0 {
				c.Metrics.SupersededRows.Add(int64(superseded))
			}
			// state.len() sums every partition and is not safe while other
			// owners mutate theirs, so the row guard extrapolates from this
			// partition like the decomposed runner.
			if round > int64(opt.maxIter()) || (opt.MaxRows > 0 && len(state.rows(part))*parts > opt.MaxRows) {
				fail(&ErrNonTermination{Iterations: int(round), Rows: len(state.rows(part)) * parts})
				return nil
			}
			var out [][]types.Row
			if !d.empty() {
				out = ws.run(c, kernels, d, part, worker)
			}
			if traceOn {
				record(round, d, stale, superseded, t0, tr.Now())
			}
			return out
		},
	}, seed)

	if failed.Load() {
		return nil, firstErr
	}
	// Round 0 is the base-case merge, so the deepest clock exceeds the
	// iteration count by one — aligned with the BSP runners' convention.
	iters := int(stats.MaxClock) - 1
	if iters < 0 {
		iters = 0
	}
	if iters > 0 {
		c.Metrics.Iterations.Add(int64(iters))
	}
	if traceOn {
		mode := "dsn-" + opt.Mode.String()
		if opt.Mode == ModeSSP {
			mode = "dsn-ssp(" + strconv.Itoa(gate) + ")"
		}
		all := 0
		for i := range rounds {
			r := rounds[i]
			all += r.newKeys
			ev := trace.IterationEvent{
				Iter: i, Mode: mode,
				DeltaRows: r.deltaRows, AllRows: all,
				NewKeys: r.newKeys, Improved: r.improved,
				Relaxed: true, StaleRows: r.stale, SupersededRows: r.superseded,
				StartNS: r.startNS, EndNS: r.endNS,
			}
			if i == len(rounds)-1 {
				ev.PartRows = make([]int, parts)
				for p := range ev.PartRows {
					ev.PartRows[p] = len(state.rows(p))
				}
			}
			tr.EmitIteration(ev)
		}
	}
	return collect(plan, state, c, iters)
}
