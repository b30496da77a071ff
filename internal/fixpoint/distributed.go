package fixpoint

import (
	"strings"
	"sync"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// DistOptions configures the distributed DSN engine.
type DistOptions struct {
	Options
	// StageCombination fuses the Reduce stage of iteration i with the Map
	// stage of iteration i+1 into one ShuffleMap stage (Algorithm 6,
	// Section 7.1). Off reproduces the two-stage Algorithm 4/5.
	StageCombination bool
	// Join selects the co-partitioned join implementation (Appendix D).
	Join JoinStrategy
	// Volcano disables the fused ("code generation") kernels and runs the
	// classical iterator model instead (Section 7.3 ablation).
	Volcano bool
	// DisableDecomposition forces shuffle execution even for decomposable
	// plans (Section 7.2 ablation).
	DisableDecomposition bool
	// RebuildJoinState rebuilds the cached build-side hash tables /
	// sorted runs and re-broadcasts every iteration, modelling an
	// iterative-SQL loop that cannot cache across statements (the
	// Spark-SQL-SN baseline of Section 8.2).
	RebuildJoinState bool
	// Mode selects the synchronization discipline: the default ModeBSP
	// barrier loop, SSP(k) bounded staleness, or fully asynchronous
	// execution. Relaxed modes require the clique to be confluent — a set
	// view, or an aggregate view vet certifies PreM — and transparently
	// fall back to BSP otherwise (Result.FallbackReason records why).
	Mode EvalMode
	// Staleness is the SSP bound k (ModeSSP only): a partition may run at
	// most k rounds ahead of the slowest partition that still has work.
	Staleness int
}

// Distributed evaluates a linear single-view clique on the simulated
// cluster with Distributed Semi-Naive evaluation, building its base side
// for this query alone. Callers should fall back to Local when
// PlanDistributed rejects the clique.
func Distributed(clique *analyze.Clique, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	return DistributedShared(clique, ctx, c, opt, nil)
}

// DistributedShared is Distributed over the base published in slot: the
// first execution builds it and publishes it, later ones reuse it. A nil
// slot builds a private base, and so does a query with an enabled fault
// injector (a simulated worker loss drops broadcast tables) or with
// RebuildJoinState (which models rebuilding the join state every iteration).
// A failed build publishes nothing.
func DistributedShared(clique *analyze.Clique, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions, slot *BaseSlot) (*Result, error) {
	if c.ChaosEnabled() || opt.RebuildJoinState {
		slot = nil
	}
	var base *Base
	var err error
	if slot != nil {
		base = slot.base.Load()
	}
	if base != nil {
		c.Metrics.BaseReuses.Add(1)
	} else if base, err = buildBase(clique, ctx, c, opt); err != nil {
		return nil, err
	} else if slot != nil {
		// A concurrent first execution may have published first; the two
		// bases are equivalent, so the loser keeps its own.
		slot.base.CompareAndSwap(nil, base)
	}
	// Barrier relaxation is sound only for confluent cliques; anything else
	// silently losing the barrier could observe non-final aggregates, so a
	// failed certification downgrades to BSP and says why.
	var fallback string
	if opt.Mode != ModeBSP {
		if reason := relaxedIneligible(clique, base.plan); reason != "" {
			fallback = reason
			if opt.Tracer.SpansEnabled() {
				opt.Tracer.Instant("bsp fallback: "+reason, trace.TidDriver)
			}
			opt.Mode = ModeBSP
		}
	}
	res, err := runDistributed(base, ctx, c, opt)
	if err != nil {
		return nil, err
	}
	res.Mode = opt.modeLabel()
	res.FallbackReason = fallback
	// Surface the mode on the query context so the per-query QueryStats
	// fold (obs recorder, query log) attributes it without re-deriving.
	c.SetMode(res.Mode, fallback)
	return res, nil
}

// Base is the physical base side of one recursive program: the plan, the
// rule kernels (co-partitioned hash tables or sorted runs, and the
// per-worker broadcast tables) and the hash-partitioned seed. It depends
// only on the clique, the base relations and the engine configuration, so
// a compiled plan builds it once and every execution shares it — the
// paper's cached build side (Appendix D) and "broadcast once" (Section 7.2).
//
// A Base is read-only once built, and every evaluation mode treats it so:
// Fetch copies seed rows across the driver boundary, Shuffle.Add and the
// relaxed router's driver enqueue encode them, state Merge copies the rows
// it accepts, and kernels only probe their tables. Concurrent executions
// may therefore read one Base without locks.
type Base struct {
	plan    *Plan
	kernels []*ruleKernel
	// seed[p] is partition p's base case, in one slab per partition.
	seed [][]types.Row
}

// BaseSlot holds the Base of one compiled recursive program. The zero value
// is empty; the first successful execution fills it and it never changes
// after, so it lives and dies with the compiled plan that owns it.
type BaseSlot struct{ base atomic.Pointer[Base] }

// Fingerprint hashes every row the published base holds — the seed, the
// co-partitioned tables or sorted runs, and each of the given workers'
// broadcast tables — so a test can prove executions leave it untouched.
// An empty slot hashes to 0.
func (s *BaseSlot) Fingerprint(workers int) uint64 {
	b := s.base.Load()
	if b == nil {
		return 0
	}
	var h uint64 = 1
	hash := func(rows []types.Row) {
		for _, r := range rows {
			h = types.HashRow(h, r)
		}
	}
	for _, rows := range b.seed {
		hash(rows)
	}
	for _, k := range b.kernels {
		if cb := k.copart; cb != nil {
			for _, t := range cb.tables {
				hash(t.Rows())
			}
			for _, rows := range cb.sorted {
				hash(rows)
			}
		}
		for _, bc := range k.bcasts {
			for w := 0; w < workers; w++ {
				hash(bc.Table(w).Rows())
			}
		}
	}
	return h
}

// buildBase plans the clique and builds its base side: the kernels, then
// the base rules evaluated on the driver and bucketed by partition key.
func buildBase(clique *analyze.Clique, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Base, error) {
	plan, err := PlanDistributed(clique)
	if err != nil {
		return nil, err
	}
	if opt.DisableDecomposition && plan.Decomposed {
		plan = replanShuffled(clique)
	}
	kernels, err := makeKernels(plan, ctx, c, opt)
	if err != nil {
		return nil, err
	}
	v := plan.View
	parts := c.Partitions()
	seed := make([][]types.Row, parts)
	for _, rule := range v.BaseRules {
		rows, err := evalRuleLocal(rule, nil, ctx, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			p := int(types.HashRowKey(r, plan.PartKey) % uint64(parts))
			seed[p] = append(seed[p], r)
		}
	}
	for p, rows := range seed {
		// Algorithm 5's map-side combine on the base branch: an extremum
		// keeps one row per group. (Additive contributions that cancel to
		// zero would drop a group Merge keeps, so sum/count stay uncombined.)
		if v.IsAgg() && !v.Agg.Additive() {
			rows = types.PartialAggregateOwned(rows, v.GroupIdx, v.AggIdx, v.Agg)
		}
		seed[p] = types.CloneRows(rows)
	}
	return &Base{plan: plan, kernels: kernels, seed: seed}, nil
}

// replanShuffled rebuilds the plan with decomposition disabled; the rules
// keep their broadcast joins but the output shuffles each iteration.
func replanShuffled(clique *analyze.Clique) *Plan {
	v := clique.Views[0]
	p := &Plan{View: v}
	if v.IsAgg() {
		p.PartKey = append([]int(nil), v.GroupIdx...)
	} else {
		p.PartKey = allColumns(v)
	}
	for _, r := range v.RecRules {
		rp, err := planRule(r, p.PartKey, true)
		if err != nil {
			// planRule with forceBroadcast cannot fail for rules that
			// already planned once.
			panic("fixpoint: replan failed: " + err.Error())
		}
		rp.Strategy = StrategyBroadcast
		p.Rules = append(p.Rules, rp)
	}
	return p
}

// viewState wraps SetRDD/AggRDD behind one merge interface.
type viewState struct {
	v   *analyze.RecView
	set *cluster.SetRDD
	agg *cluster.AggRDD
}

func newViewState(c *cluster.QueryContext, v *analyze.RecView) *viewState {
	if v.IsAgg() {
		return &viewState{v: v, agg: c.NewAggRDD(v.Schema, v.GroupIdx, v.AggIdx, v.Agg)}
	}
	return &viewState{v: v, set: c.NewSetRDD(v.Schema)}
}

func (s *viewState) merge(part int, rows []types.Row) deltaBatch {
	if s.set != nil {
		return deltaBatch{Rows: s.set.Merge(part, rows)}
	}
	d := s.agg.Merge(part, rows)
	return deltaBatch{Rows: d.Rows, Incs: d.Incs, News: d.News}
}

func (s *viewState) len() int {
	if s.set != nil {
		return s.set.Len()
	}
	return s.agg.Len()
}

func (s *viewState) owner(part int) int {
	if s.set != nil {
		return s.set.Owner[part]
	}
	return s.agg.Owner[part]
}

func (s *viewState) partitions() int {
	if s.set != nil {
		return s.set.NumPartitions()
	}
	return s.agg.NumPartitions()
}

func (s *viewState) rows(part int) []types.Row {
	if s.set != nil {
		return s.set.Rows(part)
	}
	return s.agg.Rows(part)
}

// checkpoint/restore wrap the state's Section 6.1 snapshots.
type stateCheckpoint struct {
	set *cluster.SetCheckpoint
	agg *cluster.AggCheckpoint
}

func (s *viewState) checkpoint(part int) stateCheckpoint {
	if s.set != nil {
		return stateCheckpoint{set: s.set.Checkpoint(part)}
	}
	return stateCheckpoint{agg: s.agg.Checkpoint(part)}
}

func (s *viewState) restore(cp stateCheckpoint) {
	if s.set != nil {
		s.set.Restore(cp.set)
		return
	}
	s.agg.Restore(cp.agg)
}

// recoverableTask wraps a stage task that merges into the view state. Under
// an enabled fault injector it snapshots the partition at stage-construction
// time (the driver builds tasks before any attempt runs, so the snapshot is
// valid even when the fault fires before the body) and registers a Rollback
// that restores it — the Section 6.1 recovery: the accumulated all relation
// is its own checkpoint, and a failed attempt replays only the current
// iteration's work on that partition.
func recoverableTask(c *cluster.QueryContext, state *viewState, t cluster.Task) cluster.Task {
	if c.ChaosEnabled() {
		cp := state.checkpoint(t.Part)
		t.Rollback = func() {
			state.restore(cp)
			c.Metrics.RecoveredIterations.Add(1)
		}
	}
	return t
}

func runDistributed(base *Base, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	plan, kernels, seed := base.plan, base.kernels, base.seed
	state := newViewState(c, plan.View)
	if opt.Mode != ModeBSP {
		// Every plan shape shares the one relaxed delta-routing kernel; the
		// plan still decides partitioning and join strategy.
		return runRelaxed(plan, state, kernels, seed, c, opt)
	}
	if plan.Decomposed {
		return runDecomposed(plan, state, kernels, seed, c, opt)
	}
	if opt.StageCombination {
		return runCombined(plan, state, kernels, seed, c, opt)
	}
	return runTwoStage(plan, state, kernels, seed, ctx, c, opt)
}

// makeKernels builds the per-rule kernels: cached co-partitioned hash
// tables or sorted runs, and compressed/hashed broadcasts.
func makeKernels(plan *Plan, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) ([]*ruleKernel, error) {
	join := opt.Join
	if opt.Volcano && join == SortMerge {
		join = ShuffleHash // sort-merge is implemented in the fused path
	}
	kernels := make([]*ruleKernel, len(plan.Rules))
	for i, rp := range plan.Rules {
		k := &ruleKernel{rp: rp, volcano: opt.Volcano, join: join}
		if rp.Strategy == StrategyCoPartition {
			rel, err := ctx.SourceRelation(rp.Rule.Sources[rp.CoPartSource])
			if err != nil {
				return nil, err
			}
			k.copart = buildCopart(c, rel.Rows, rp.CoPartBuildCols, join)
		}
		for _, st := range rp.Steps {
			rel, err := ctx.SourceRelation(rp.Rule.Sources[st.Source])
			if err != nil {
				return nil, err
			}
			k.bcasts = append(k.bcasts, c.Broadcast(rel.Rows, rel.Schema, st.BuildCols))
		}
		kernels[i] = k
	}
	return kernels, nil
}

// project evaluates rule heads over kernel emissions, bucketing output rows
// by the view partition key, with map-side partial aggregation (Algorithm
// 5 line 5). Head expressions are compiled to closures once per rule and
// every byte a step needs comes out of the partition's reusable scratch —
// the allocation-shape half of whole-stage code generation.
type projector struct {
	plan  *Plan
	parts int
	// heads[rule][col] is the compiled projection.
	heads [][]func(expr.Env) types.Value
	// scratch[part] is partition part's working memory. Tasks of one
	// partition never overlap, so it needs no lock.
	scratch []stepScratch
}

// stepScratch is the memory one projector.run call works in, reused by the
// next call for the same partition: a run's output is valid only until then.
type stepScratch struct {
	arena  types.RowSlab   // output rows, increment clones, probe keys
	out    [][]types.Row   // output buckets by target partition
	stream []types.Row     // the delta as one rule consumes it
	env    expr.Env        // the fused kernel's join environment
	keys   [][]types.Value // the fused kernel's probe key per join step
}

func newProjector(plan *Plan, parts int) *projector {
	pr := &projector{plan: plan, parts: parts, scratch: make([]stepScratch, parts)}
	pr.heads = make([][]func(expr.Env) types.Value, len(plan.Rules))
	for i, rp := range plan.Rules {
		fns := make([]func(expr.Env) types.Value, len(rp.Rule.Head))
		for j, h := range rp.Rule.Head {
			fns[j] = compileExpr(h)
		}
		pr.heads[i] = fns
	}
	return pr
}

// compileExpr flattens the common expression shapes into direct closures,
// removing the per-row interface dispatch of the generic evaluator.
func compileExpr(e expr.Expr) func(expr.Env) types.Value {
	switch x := e.(type) {
	case *expr.Col:
		in, idx := x.Input, x.Idx
		return func(env expr.Env) types.Value { return env[in][idx] }
	case *expr.Lit:
		v := x.V
		return func(expr.Env) types.Value { return v }
	case *expr.Bin:
		l, r := compileExpr(x.L), compileExpr(x.R)
		switch x.Op {
		case ast.OpAdd:
			return func(env expr.Env) types.Value { return l(env).Add(r(env)) }
		case ast.OpSub:
			return func(env expr.Env) types.Value { return l(env).Sub(r(env)) }
		case ast.OpMul:
			return func(env expr.Env) types.Value { return l(env).Mul(r(env)) }
		case ast.OpDiv:
			return func(env expr.Env) types.Value { return l(env).Div(r(env)) }
		}
	}
	return e.Eval
}

// run derives one step's output for partition part from its delta. The
// buckets and their rows live in the partition's scratch: the caller must
// encode, merge or copy them before the next run for the same partition.
func (pr *projector) run(c *cluster.QueryContext, kernels []*ruleKernel, delta deltaBatch, part, worker int) [][]types.Row {
	v := pr.plan.View
	sc := &pr.scratch[part]
	sc.arena.Reset()
	if sc.out == nil {
		sc.out = make([][]types.Row, pr.parts)
	}
	out := sc.out
	for t := range out {
		out[t] = out[t][:0]
	}
	width := v.Schema.Len()
	for ki, k := range kernels {
		rp := pr.plan.Rules[ki]
		stream := delta.streamRows(rp, aggIdxOf(v), sc)
		if len(stream) == 0 {
			continue
		}
		head := pr.heads[ki]
		k.run(c, stream, part, worker, sc, func(env expr.Env) {
			row := sc.arena.Alloc(width)
			for i, h := range head {
				row[i] = h(env)
			}
			if v.Agg == types.AggCount {
				row[v.AggIdx] = types.CountContribution(row[v.AggIdx])
			}
			t := int(types.HashRowKey(row, pr.plan.PartKey) % uint64(pr.parts))
			out[t] = append(out[t], row)
		})
	}
	if v.IsAgg() {
		for t := range out {
			// Output rows are scratch-owned and private to this call.
			out[t] = types.PartialAggregateOwned(out[t], v.GroupIdx, v.AggIdx, v.Agg)
		}
	}
	return out
}

func aggIdxOf(v *analyze.RecView) int {
	if v.AggIdx >= 0 {
		return v.AggIdx
	}
	return 0
}

// runTwoStage is Algorithm 4/5: a Map stage (join + partial aggregate +
// shuffle) and a Reduce stage (merge into the all relation, emit delta) per
// iteration.
func runTwoStage(plan *Plan, state *viewState, kernels []*ruleKernel, seed [][]types.Row, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	parts := state.partitions()
	pr := newProjector(plan, parts)
	deltas := make([]deltaBatch, parts)
	tr := opt.Tracer

	// Seed: merge the base case in one reduce-like stage.
	seedSpan := tr.BeginIteration(0)
	seedTasks := make([]cluster.Task, parts)
	for i := range seedTasks {
		p := i
		seedTasks[i] = recoverableTask(c, state, cluster.Task{Part: p, Preferred: state.owner(p), Run: func(w int) {
			rows := c.Fetch(seed[p], -1, w)
			deltas[p] = state.merge(p, rows)
			c.ChaosPostMerge(w)
		}})
	}
	c.RunStage("fixpoint.seed", seedTasks)
	if tr.Enabled() {
		ev := iterEvent("dsn-two-stage", state, nil, shuffleMark{})
		countDeltas(&ev, deltas)
		seedSpan.End(ev)
	}

	iter := 0
	for {
		if allEmpty(deltas) {
			break
		}
		iter++
		c.Metrics.Iterations.Add(1)
		if err := checkCancel(opt.Context, iter-1); err != nil {
			return nil, err
		}
		if iter > opt.maxIter() || (opt.MaxRows > 0 && state.len() > opt.MaxRows) {
			return nil, &ErrNonTermination{Iterations: iter, Rows: state.len()}
		}
		if opt.RebuildJoinState {
			var err error
			kernels, err = makeKernels(plan, ctx, c, opt)
			if err != nil {
				return nil, err
			}
		}
		var mark shuffleMark
		if tr.Enabled() {
			mark = markShuffle(c)
		}
		is := tr.BeginIteration(iter)
		sh := c.NewShuffle(parts)
		mapTasks := make([]cluster.Task, 0, parts)
		for p := 0; p < parts; p++ {
			if deltas[p].empty() {
				continue
			}
			p := p
			d := deltas[p]
			mapTasks = append(mapTasks, cluster.Task{Part: p, Preferred: state.owner(p), Run: func(w int) {
				// The delta RDD was produced by the previous Reduce stage
				// on the state owner; a Map task placed elsewhere (the
				// default scheduler's locality-oblivious pickup) fetches
				// it remotely — the inter-iteration locality loss the
				// paper's partition-aware scheduling removes.
				d.Rows = c.Fetch(d.Rows, state.owner(p), w)
				sh.Add(pr.run(c, kernels, d, p, w), w)
			}})
		}
		c.RunStage("fixpoint.map", mapTasks)

		next := make([]deltaBatch, parts)
		redTasks := make([]cluster.Task, parts)
		for i := range redTasks {
			p := i
			redTasks[i] = recoverableTask(c, state, cluster.Task{Part: p, Preferred: state.owner(p), Run: func(w int) {
				rows := sh.FetchTarget(p, w)
				// State lives on its owner; a task placed elsewhere must
				// move the data there (the hybrid scheduler pays this).
				if w != state.owner(p) {
					rows = c.Fetch(rows, w, state.owner(p))
				}
				next[p] = state.merge(p, rows)
				c.ChaosPostMerge(w)
			}})
		}
		c.RunStage("fixpoint.reduce", redTasks)
		deltas = next
		if tr.Enabled() {
			ev := iterEvent("dsn-two-stage", state, c, mark)
			countDeltas(&ev, deltas)
			is.End(ev)
		}
	}
	return collect(plan, state, c, iter)
}

// runCombined is Algorithm 6: one ShuffleMap stage per iteration that
// merges the incoming shuffle data, derives the new delta, joins and
// partially aggregates it, and emits the next shuffle — made possible by
// partition-aware scheduling keeping state, base partition and shuffle
// output on the same worker.
func runCombined(plan *Plan, state *viewState, kernels []*ruleKernel, seed [][]types.Row, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	parts := state.partitions()
	pr := newProjector(plan, parts)
	tr := opt.Tracer
	traceOn := tr.Enabled()

	sh := c.NewShuffle(parts)
	//rasql:allow workeraffinity -- driver-side seed write (producer -1) before any worker task starts; the driver shard has exactly one writer
	sh.Add(seed, -1)

	var pending atomic.Int64
	// Per-pass frontier counters, accumulated by the merge tasks (the
	// combined runner never materializes its deltas on the driver).
	var dRows, dNews, dImp atomic.Int64
	pending.Store(1) // seed data
	iter := 0
	for pending.Load() > 0 {
		iter++
		// The first pass merges the base case — the seed stage of the
		// two-stage runner — so iterations count from the second pass to
		// keep the metric comparable across execution modes.
		if iter > 1 {
			c.Metrics.Iterations.Add(1)
		}
		if err := checkCancel(opt.Context, iter-1); err != nil {
			return nil, err
		}
		if iter > opt.maxIter() || (opt.MaxRows > 0 && state.len() > opt.MaxRows) {
			return nil, &ErrNonTermination{Iterations: iter, Rows: state.len()}
		}
		var mark shuffleMark
		if traceOn {
			mark = markShuffle(c)
			dRows.Store(0)
			dNews.Store(0)
			dImp.Store(0)
		}
		// Pass 1 is the base-case merge, so its telemetry lands on
		// iteration 0 — aligned with the two-stage runner's seed stage.
		is := tr.BeginIteration(iter - 1)
		next := c.NewShuffle(parts)
		pending.Store(0)
		tasks := make([]cluster.Task, parts)
		for i := range tasks {
			p := i
			tasks[i] = recoverableTask(c, state, cluster.Task{Part: p, Preferred: state.owner(p), Run: func(w int) {
				rows := sh.FetchTarget(p, w)
				if w != state.owner(p) {
					rows = c.Fetch(rows, w, state.owner(p))
				}
				d := state.merge(p, rows)
				// The post-merge fault point models an executor dying after
				// mutating the cached state but before publishing output —
				// the case where recovery must restore the iteration
				// checkpoint before the replay (Section 6.1).
				c.ChaosPostMerge(w)
				if traceOn {
					rows, news, imp := countDelta(d)
					dRows.Add(int64(rows))
					dNews.Add(int64(news))
					dImp.Add(int64(imp))
				}
				if d.empty() {
					return
				}
				out := pr.run(c, kernels, d, p, w)
				for _, bucket := range out {
					if len(bucket) > 0 {
						pending.Add(1)
						break
					}
				}
				next.Add(out, w)
			}})
		}
		c.RunStage("fixpoint.shufflemap", tasks)
		if traceOn {
			ev := iterEvent("dsn-combined", state, c, mark)
			ev.DeltaRows = int(dRows.Load())
			ev.NewKeys = int(dNews.Load())
			ev.Improved = int(dImp.Load())
			is.End(ev)
		}
		sh = next
	}
	return collect(plan, state, c, iter-1)
}

// runDecomposed is the Section 7.2 execution: with the partition key
// carried by every rule head and all base relations broadcast, each
// partition iterates to its own fixpoint with no synchronization or
// shuffling at all — a single stage for the whole recursion.
func runDecomposed(plan *Plan, state *viewState, kernels []*ruleKernel, seed [][]types.Row, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	parts := state.partitions()
	pr := newProjector(plan, parts)
	tr := opt.Tracer
	traceOn := tr.Enabled()
	var maxIters atomic.Int64
	var dRows, dNews, dImp atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	var firstErr error

	// Decomposed execution has no global iteration barrier — each partition
	// races to its own fixpoint inside one stage — so the telemetry is a
	// single summary event spanning the stage, numbered with the deepest
	// partition's iteration count.
	is := tr.BeginIteration(0)
	tasks := make([]cluster.Task, parts)
	for i := range tasks {
		p := i
		tasks[i] = recoverableTask(c, state, cluster.Task{Part: p, Preferred: state.owner(p), Run: func(w int) {
			rows := c.Fetch(seed[p], -1, w)
			d := state.merge(p, rows)
			// A decomposed task runs its whole local fixpoint in one
			// attempt, so a fault anywhere rolls the partition back to its
			// (empty) stage checkpoint and replays the fixpoint from the
			// seed — the whole-task replay a lineage-free executor loss
			// forces.
			c.ChaosPostMerge(w)
			local := 0
			// Per-attempt telemetry, published only when the attempt
			// completes, so rounds rolled back by a fault are not counted
			// twice by the replay.
			var tRows, tNews, tImp int
			for !d.empty() {
				if traceOn {
					n, nw, im := countDelta(d)
					tRows += n
					tNews += nw
					tImp += im
				}
				local++
				// Decomposed partitions have no global barrier, so each local
				// round boundary is this partition's iteration boundary.
				if err := checkCancel(opt.Context, local-1); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if local > opt.maxIter() || (opt.MaxRows > 0 && len(state.rows(p))*parts > opt.MaxRows) {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = &ErrNonTermination{Iterations: local, Rows: state.len()}
					}
					mu.Unlock()
					return
				}
				out := pr.run(c, kernels, d, p, w)
				// All output stays in this partition by construction;
				// anything else is a planner bug.
				var mine []types.Row
				for t, bucket := range out {
					if len(bucket) > 0 && t != p {
						panic("fixpoint: decomposed plan leaked rows across partitions")
					}
					if t == p {
						mine = bucket
					}
				}
				d = state.merge(p, mine)
				c.ChaosPostMerge(w)
			}
			if traceOn {
				dRows.Add(int64(tRows))
				dNews.Add(int64(tNews))
				dImp.Add(int64(tImp))
			}
			for {
				cur := maxIters.Load()
				if int64(local) <= cur || maxIters.CompareAndSwap(cur, int64(local)) {
					break
				}
			}
		}})
	}
	c.RunStage("fixpoint.decomposed", tasks)
	if failed.Load() {
		return nil, firstErr
	}
	c.Metrics.Iterations.Add(maxIters.Load())
	if traceOn {
		ev := iterEvent("dsn-decomposed", state, nil, shuffleMark{})
		ev.DeltaRows = int(dRows.Load())
		ev.NewKeys = int(dNews.Load())
		ev.Improved = int(dImp.Load())
		is.EndAt(int(maxIters.Load()), ev)
	}
	return collect(plan, state, c, int(maxIters.Load()))
}

func allEmpty(ds []deltaBatch) bool {
	for _, d := range ds {
		if !d.empty() {
			return false
		}
	}
	return true
}

// collect gathers the final state onto the driver.
func collect(plan *Plan, state *viewState, c *cluster.QueryContext, iters int) (*Result, error) {
	out := relation.New(plan.View.Name, plan.View.Schema)
	for p := 0; p < state.partitions(); p++ {
		out.Rows = append(out.Rows, c.Fetch(state.rows(p), state.owner(p), -1)...)
	}
	return &Result{
		Relations:  map[string]*relation.Relation{strings.ToLower(plan.View.Name): out},
		Iterations: iters,
	}, nil
}
