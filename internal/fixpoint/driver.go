package fixpoint

import (
	"strings"
	"sync"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
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
// kernels it probes and the options it runs under. It lives in its
// workspace, which serves one execution at a time, so the workspace's kept
// stage tasks find it there and a warm execution allocates no record.
type execution struct {
	ws      *workspace
	kernels []*ruleKernel
	seed    [][]types.Row
	c       *cluster.QueryContext
	opt     DistOptions
	parts   int
	// state is the view state the semi-naive runners merge into; nil for
	// the SQL-naive baseline, whose naive[p] is partition p's current
	// relation, replaced every iteration.
	state *cluster.State
	naive [][]types.Row
	// mode names the runner on its iteration events.
	mode  string
	front frontier
	// final is the final query the execution runs as its last stage, or
	// nil when it returns the view.
	final *analyze.Query
	// part is the running stage's body, which every kept task calls for its
	// partition; cps are the partitions' checkpoints a failed attempt of a
	// recoverable stage restores, empty unless the stage is one.
	part func(x *execution, p, w int)
	cps  []cluster.Checkpoint
	// sh is the shuffle the running stage reads and next the one it writes
	// (the combined runner); emitted reports whether next received a row.
	sh, next *cluster.Shuffle
	emitted  atomic.Bool
	// fail keeps the first error of the decomposed runner's tasks.
	fail failure
}

// newExecution starts ws's execution of base: the record is reset, and the
// workspace's stage tasks are built the first time it serves one.
func newExecution(base *Base, ws *workspace, c *cluster.QueryContext, opt DistOptions, state *cluster.State) *execution {
	ws.exec = execution{ws: ws, kernels: base.kernels, seed: base.seed, c: c, opt: opt, parts: c.Partitions(), state: state, final: base.final}
	x := &ws.exec
	x.front.split = opt.Tracer.Enabled()
	if ws.tasks == nil {
		ws.tasks = make([]cluster.Task, x.parts)
		for p := range ws.tasks {
			p := p
			ws.tasks[p] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p),
				Run:      func(w int) { x.part(x, p, w) },
				Rollback: func() { x.restore(p) }}
		}
	}
	return x
}

// rows is partition p's accumulated relation: the view state's, or the
// SQL-naive baseline's current one.
func (x *execution) rows(p int) []types.Row {
	if x.state == nil {
		return x.naive[p]
	}
	return x.state.Rows(p)
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

// stage runs part for the partitions of tasks, which are the workspace's
// kept tasks or a subset of them, each placed on its partition's owner. A
// stage that merges into the view state is recoverable: under an enabled
// fault injector every partition is snapshot before any attempt runs, so the
// snapshot is valid even when the fault fires before the body, and a failed
// attempt restores it — the Section 6.1 recovery: the accumulated all
// relation is its own checkpoint, and a failed attempt replays only the
// current iteration's work on that partition.
func (x *execution) stage(name string, tasks []cluster.Task, part func(x *execution, p, w int), merges bool) {
	x.part, x.cps = part, x.cps[:0]
	if merges && x.c.ChaosEnabled() {
		for p := 0; p < x.parts; p++ {
			x.cps = append(x.cps, x.state.Checkpoint(p))
		}
	}
	x.c.RunStage(name, tasks)
	x.part = nil
}

// restore is a kept task's Rollback: in a recoverable stage it puts
// partition p back to its stage checkpoint.
func (x *execution) restore(p int) {
	if len(x.cps) > 0 {
		x.state.Restore(x.cps[p])
		x.c.Metrics.RecoveredIterations.Add(1)
	}
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
