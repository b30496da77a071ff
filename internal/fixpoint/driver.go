package fixpoint

import (
	"strings"
	"sync"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// This file is the one fixpoint driver the distributed runners share: one
// execution record, one guard at every iteration boundary, one loop and one
// frontier count. A runner only lays an iteration out in stages (two-stage,
// combined, decomposed, SQL-naive) or hands it to the cluster's relaxed
// router, and picks its termination test: an empty frontier, or the
// router's credit quiescence.
//
// Every runner counts iterations alike. The seed — the base case merged
// into the empty state — is iteration 0, and iteration k derives the k-th
// delta. The loop ends after the first iteration whose delta is empty, so a
// BSP runner reports exactly the local oracle's count.

// execution is one run of a compiled Base: the workspace it borrowed, the
// kernels it probes and the options it runs under.
type execution struct {
	ws      *workspace
	kernels []*ruleKernel
	seed    [][]types.Row
	c       *cluster.QueryContext
	opt     DistOptions
	parts   int
	// state is the view state the semi-naive runners merge into; nil for
	// the SQL-naive baseline, which replaces its relation every iteration.
	state *cluster.State
	// rows is partition p's accumulated relation: the view state's, or the
	// SQL-naive baseline's current one.
	rows func(p int) []types.Row
	// mode names the runner on its iteration events.
	mode  string
	front frontier
	// final is the final query the execution runs as its last stage, or
	// nil when it returns the view.
	final *finalPlan
}

func newExecution(base *Base, ws *workspace, c *cluster.QueryContext, opt DistOptions, state *cluster.State, rows func(int) []types.Row) *execution {
	x := &execution{ws: ws, kernels: base.kernels, seed: base.seed, c: c, opt: opt, parts: c.Partitions(), state: state, rows: rows, final: base.final}
	x.front.split = opt.Tracer.Enabled()
	return x
}

// total is the size of the accumulated relation, read between stages.
func (x *execution) total() int {
	n := 0
	for p := 0; p < x.parts; p++ {
		n += len(x.rows(p))
	}
	return n
}

// guard is the check every runner makes before iteration iter starts, with
// rows accumulated: the caller's context first, then the iteration and row
// bounds.
func (o Options) guard(iter, rows int) error {
	if err := checkCancel(o.Context, max(iter-1, 0)); err != nil {
		return err
	}
	if iter > o.maxIter() || (o.MaxRows > 0 && rows > o.MaxRows) {
		return &ErrNonTermination{Iterations: iter, Rows: rows}
	}
	return nil
}

// iterate is the fixpoint loop. While the last delta (the seed's, first) is
// non-empty it checks the guard against rows and runs the next iteration's
// step, which returns the size of the delta it derived. It returns the
// number of iterations run or, with an error, the iteration it stopped at.
func (x *execution) iterate(frontier int, rows func() int, step func(iter int) (int, error)) (int, error) {
	iter := 0
	for frontier > 0 {
		iter++
		if err := x.opt.guard(iter, rows()); err != nil {
			return iter, err
		}
		var err error
		if frontier, err = step(iter); err != nil {
			return iter, err
		}
	}
	return iter, nil
}

// tasks builds one task per partition, placed on the partition's owner.
// When the execution has a view state, a task that merges into it is
// recoverable: under an enabled fault injector it snapshots the partition
// when the stage is built (before any attempt runs, so the snapshot is valid
// even when the fault fires before the body) and a failed attempt restores
// it — the Section 6.1 recovery: the accumulated all relation is its own
// checkpoint, and a failed attempt replays only the current iteration's work
// on that partition.
func (x *execution) tasks(run func(p, w int)) []cluster.Task {
	tasks := make([]cluster.Task, x.parts)
	for p := range tasks {
		p := p
		tasks[p] = cluster.Task{Part: p, Preferred: x.c.DefaultOwner(p), Run: func(w int) { run(p, w) }}
		if x.state != nil && x.c.ChaosEnabled() {
			cp := x.state.Checkpoint(p)
			tasks[p].Rollback = func() {
				x.state.Restore(cp)
				x.c.Metrics.RecoveredIterations.Add(1)
			}
		}
	}
	return tasks
}

// receive fetches partition p's shuffled input on worker w. State lives on
// its owner, so a task placed elsewhere must move the data there (the hybrid
// scheduler pays this): w, which runs the task, pays the round trip, which
// costs the same in either direction.
func (x *execution) receive(sh *cluster.Shuffle, p, w int) []types.Row {
	rows := x.ws.fetch(sh, p, w)
	if o := x.c.DefaultOwner(p); w != o {
		rows = x.c.Fetch(rows, o, w)
	}
	return rows
}

// merge folds partition p's incoming rows into the state on worker w and
// counts the delta into f. The post-merge fault point models an executor
// dying after mutating the cached state but before publishing output — the
// case where recovery must restore the checkpoint before the replay
// (Section 6.1). It precedes the count, so a failed attempt counts nothing.
func (x *execution) merge(f *frontier, p, w int, rows []types.Row) deltaBatch {
	d := deltaBatch(x.state.Merge(p, rows))
	x.c.ChaosPostMerge(w)
	f.add(d)
	return d
}

// traced runs one iteration's stages and returns the size of the delta they
// counted. With a tracer attached it also reports them as iteration iter.
func (x *execution) traced(iter int, stages func()) int {
	tr := x.opt.Tracer
	if !tr.Enabled() {
		stages()
		return x.front.take(nil)
	}
	mark := markShuffle(x.c)
	is := tr.BeginIteration(iter)
	stages()
	ev := x.event(mark)
	n := x.front.take(&ev)
	is.End(ev)
	return n
}

// event builds the state- and cluster-derived half of an iteration event:
// the all-relation size, the per-partition skew profile and the shuffle
// volume since m.
func (x *execution) event(m shuffleMark) trace.IterationEvent {
	ev := trace.IterationEvent{Mode: x.mode, PartRows: make([]int, x.parts)}
	for p := range ev.PartRows {
		ev.PartRows[p] = len(x.rows(p))
		ev.AllRows += ev.PartRows[p]
	}
	ev.ShuffleBytes = x.c.Metrics.ShuffleBytes.Load() - m.bytes
	ev.ShuffleRecords = x.c.Metrics.ShuffleRecords.Load() - m.recs
	return ev
}

// finish counts the iterations a runner reached, failed runs included, and
// on success runs the final stage, or gathers the view onto the driver when
// the execution has no final query.
func (x *execution) finish(iters int, err error) (*Result, error) {
	x.c.Metrics.Iterations.Add(int64(iters))
	if err != nil {
		return nil, err
	}
	if x.final != nil {
		return &Result{Final: x.finalStage(), Iterations: iters}, nil
	}
	v := x.ws.plan.View
	out := relation.New(v.Name, v.Schema)
	out.Rows = make([]types.Row, 0, x.total())
	for p := 0; p < x.parts; p++ {
		out.Rows = append(out.Rows, x.c.Fetch(x.rows(p), x.c.DefaultOwner(p), -1)...)
	}
	return &Result{
		Relations:  map[string]*relation.Relation{strings.ToLower(v.Name): out},
		Iterations: iters,
	}, nil
}

// frontier counts the delta of one iteration across the tasks that derive
// it concurrently. Its rows decide termination; the split into first
// derivations and improvements is counted only when split is set, for the
// tracer.
type frontier struct {
	split                bool
	rows, news, improved atomic.Int64
}

func (f *frontier) add(d deltaBatch) {
	f.rows.Add(int64(len(d.Rows)))
	if f.split {
		_, news, improved := countDelta(d)
		f.news.Add(int64(news))
		f.improved.Add(int64(improved))
	}
}

// addNews counts n rows that are all first derivations.
func (f *frontier) addNews(n int) {
	f.rows.Add(int64(n))
	if f.split {
		f.news.Add(int64(n))
	}
}

func (f *frontier) addAll(g *frontier) {
	f.rows.Add(g.rows.Load())
	f.news.Add(g.news.Load())
	f.improved.Add(g.improved.Load())
}

// take returns the rows counted, writes the counts into ev when it is given
// and zeroes them for the next iteration.
func (f *frontier) take(ev *trace.IterationEvent) int {
	n, news, improved := int(f.rows.Swap(0)), int(f.news.Swap(0)), int(f.improved.Swap(0))
	if ev != nil {
		ev.DeltaRows, ev.NewKeys, ev.Improved = n, news, improved
	}
	return n
}

// failure keeps the first error of the tasks that run one fixpoint
// concurrently; the others poll failed to stop early.
type failure struct {
	failed atomic.Bool
	mu     sync.Mutex
	first  error
}

func (f *failure) set(err error) {
	f.mu.Lock()
	if f.first == nil {
		f.first = err
	}
	f.mu.Unlock()
	f.failed.Store(true)
}

func (f *failure) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.first
}
