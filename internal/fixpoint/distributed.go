package fixpoint

import (
	"runtime"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/cluster"
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
// for this query alone, and returns the view. Callers should fall back to
// Local when PlanDistributed rejects the clique.
func Distributed(clique *analyze.Clique, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	return DistributedShared(clique, nil, ctx, c, opt, nil)
}

// DistributedShared is Distributed over the base published in slot: the
// first execution builds it and publishes it, later ones reuse it. A nil
// slot builds a private base, and so does a query with an enabled fault
// injector (a simulated worker loss drops broadcast tables) or with
// RebuildJoinState (which models rebuilding the join state every iteration).
// A failed build publishes nothing. When final, the program's final query,
// can run where the view lives, the execution ends with the final stage and
// returns its result in Result.Final instead of the view; slot must then
// belong to the program final comes from.
func DistributedShared(clique *analyze.Clique, final *analyze.Query, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions, slot *BaseSlot) (*Result, error) {
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
	} else if base, err = buildBase(clique, final, ctx, c, opt); err != nil {
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
	plan *Plan
	// heads[i] is plan rule i's head, compiled once for every execution's
	// emit.
	heads   []ruleHead
	kernels []*ruleKernel
	// seed[p] is partition p's base case, in one slab per partition.
	seed [][]types.Row
	// final is the program's final query when it runs as the final stage,
	// or nil when the execution returns the view.
	final *analyze.Query
	// free parks up to GOMAXPROCS workspaces of finished executions, already
	// sized to the plan's steps, for the next executions to borrow.
	free chan *workspace
}

// takeWorkspace borrows a parked workspace, or builds a fresh one.
func (b *Base) takeWorkspace() *workspace {
	select {
	case ws := <-b.free:
		return ws
	default:
		return newWorkspace(b, len(b.seed))
	}
}

// putWorkspace parks ws, or drops it when the free list is full. The
// finished execution's record is cleared first, so a parked workspace pins
// neither its query context nor its tracer.
func (b *Base) putWorkspace(ws *workspace) {
	ws.exec = execution{}
	select {
	case b.free <- ws:
	default:
	}
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
// the base rules evaluated on the driver and bucketed by partition key. It
// also keeps final, when the final stage can run it.
func buildBase(clique *analyze.Clique, final *analyze.Query, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Base, error) {
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
		rows, err := evalRule(rule, ctx, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			p := int(types.HashRowKey(r, plan.PartKey) % uint64(parts))
			seed[p] = append(seed[p], r)
		}
	}
	var comb types.Combiner
	for p, rows := range seed {
		// Algorithm 5's map-side combine on the base branch: an extremum
		// keeps one row per group. (Additive contributions that cancel to
		// zero would drop a group Merge keeps, so sum/count stay uncombined.)
		if v.IsAgg() && !v.Agg.Additive() {
			rows = comb.Combine(rows, v.GroupIdx, v.AggIdx, v.Agg)
		}
		seed[p] = types.CloneRows(rows)
	}
	heads := make([]ruleHead, len(plan.Rules))
	for i, rp := range plan.Rules {
		heads[i] = compileHead(rp.Rule.Head)
	}
	return &Base{plan: plan, heads: heads, kernels: kernels, seed: seed, final: compileFinal(final), free: make(chan *workspace, runtime.GOMAXPROCS(0))}, nil
}

// replanShuffled rebuilds the plan with decomposition disabled; the rules
// keep their broadcast joins but the output shuffles each iteration.
func replanShuffled(clique *analyze.Clique) *Plan {
	v := clique.Views[0]
	p := &Plan{View: v, PartKey: v.GroupKey()}
	for _, r := range v.RecRules {
		rp, err := planRule(r, p.PartKey, true)
		if err != nil {
			// planRule with forceBroadcast cannot fail for rules that
			// already planned once.
			panic("fixpoint: replan failed: " + err.Error())
		}
		p.Rules = append(p.Rules, rp)
	}
	return p
}

func runDistributed(base *Base, ctx *exec.Context, c *cluster.QueryContext, opt DistOptions) (*Result, error) {
	ws := base.takeWorkspace()
	defer base.putWorkspace(ws)
	// The execution's shuffles and transfers encode into the workspace's
	// send memory, handed back before the workspace is parked.
	prev := c.LendSendMemory(&ws.send)
	defer c.LendSendMemory(prev)
	if v := base.plan.View; ws.state == nil {
		ws.state = c.NewState(v.GroupIdx, v.AggIdx, v.Agg)
	} else {
		ws.state.Reset()
	}
	x := newExecution(base, ws, c, opt, ws.state)
	var iters int
	var err error
	switch {
	case opt.Mode != ModeBSP:
		// Every plan shape shares the one relaxed delta-routing kernel; the
		// plan still decides partitioning and join strategy.
		iters, err = x.relaxed()
	case base.plan.Decomposed:
		iters, err = x.decomposed()
	case opt.StageCombination:
		iters, err = x.combined()
	default:
		iters, err = x.twoStage(ctx)
	}
	return x.finish(iters, err)
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

// workspace is one execution's working memory, borrowed from its Base. run
// evaluates rule heads over kernel emissions, bucketing output rows by the
// view partition key, with map-side partial aggregation (Algorithm 5 line
// 5) folded in as each row is emitted. The heads are the Base's, compiled
// once per plan, and every byte a step needs, shuffled input included,
// comes out of the partition's reusable scratch — the allocation-shape half
// of whole-stage code generation.
type workspace struct {
	plan  *Plan
	parts int
	// heads are the Base's compiled heads, shared read-only.
	heads []ruleHead
	// scratch[part] is partition part's working memory. Tasks of one
	// partition never overlap, so it needs no lock.
	scratch []stepScratch
	// send is the wire memory the execution lends its QueryContext: its
	// shuffle generations and transfer scratch.
	send cluster.SendMemory
	// state is the recursive view's all relation: built by the
	// workspace's first semi-naive execution and reset, its memory kept,
	// by every later one. Its rows are valid until that reset, so results
	// leave it by copy.
	state *cluster.State
	// exec is the execution the workspace serves.
	exec execution
	// tasks are one task per partition, placed on the partition's owner,
	// built by the first execution: each runs the running stage's part of
	// exec for its partition. mapTasks is the two-stage map stage's subset.
	tasks, mapTasks []cluster.Task
	// merge is the driver's memory for merging the final stage's partial
	// aggregates.
	merge finalMerge
}

// stepScratch is the memory one workspace.run call works in, reused by the
// next call for the same partition: a run's output is valid only until then.
type stepScratch struct {
	arena    types.RowSlab   // output rows, increment clones, probe keys
	out      [][]types.Row   // output buckets by target partition
	stream   []types.Row     // the delta as one rule consumes it
	env      expr.Env        // the fused kernel's join environment
	keys     [][]types.Value // the fused kernel's probe key per join step
	comb     types.Combiner  // the map-side combine: the group table over out's rows
	recv     []types.Row     // shuffled input or seed, its values carved from recvSlab
	recvSlab types.RowSlab
	final    finalScratch // the final stage's output
	// delta is the delta the partition's last two-stage reduce derived, read
	// by the next map stage; iters is its decomposed fixpoint's depth.
	delta deltaBatch
	iters int
}

func newWorkspace(b *Base, parts int) *workspace {
	return &workspace{plan: b.plan, parts: parts, heads: b.heads, scratch: make([]stepScratch, parts)}
}

// ruleHead is one rule's head compiled for the emit, in exactly one of two
// forms: when every head expression is a column reference, copies[i] is the
// (input, column) pair head column i copies; otherwise fns[i] is head
// column i's compiled expression.
type ruleHead struct {
	copies [][2]int
	fns    []func(expr.Env) types.Value
}

func compileHead(head []expr.Expr) ruleHead {
	copies := make([][2]int, len(head))
	for i, e := range head {
		c, ok := e.(*expr.Col)
		if !ok {
			fns := make([]func(expr.Env) types.Value, len(head))
			for j, h := range head {
				fns[j] = compileExpr(h)
			}
			return ruleHead{fns: fns}
		}
		copies[i] = [2]int{c.Input, c.Idx}
	}
	return ruleHead{copies: copies}
}

// write evaluates the head over env into row.
func (h *ruleHead) write(row types.Row, env expr.Env) {
	if h.fns == nil {
		for i, c := range h.copies {
			row[i] = env[c[0]][c[1]]
		}
		return
	}
	for i, f := range h.fns {
		row[i] = f(env)
	}
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
func (ws *workspace) run(c *cluster.QueryContext, kernels []*ruleKernel, delta deltaBatch, part, worker int) [][]types.Row {
	v := ws.plan.View
	sc := &ws.scratch[part]
	sc.arena.Reset()
	if sc.out == nil {
		sc.out = make([][]types.Row, ws.parts)
	}
	out := sc.out
	for t := range out {
		out[t] = out[t][:0]
	}
	width := v.Schema.Len()
	agg := v.IsAgg()
	var scratch types.Row // an aggregate's head, folded into its group's row
	if agg {
		sc.comb.Reset(v.GroupIdx, v.AggIdx, v.Agg)
		scratch = sc.arena.Alloc(width)
	}
	for ki, k := range kernels {
		rp := ws.plan.Rules[ki]
		stream := delta.streamRows(rp, aggIdxOf(v), sc)
		if len(stream) == 0 {
			continue
		}
		head := &ws.heads[ki]
		k.run(c, stream, part, worker, sc, func(env expr.Env) {
			row := scratch
			if !agg {
				row = sc.arena.Alloc(width)
			}
			head.write(row, env)
			if v.Agg == types.AggCount {
				row[v.AggIdx] = types.CountContribution(row[v.AggIdx])
			}
			if agg {
				var fresh bool
				if row, fresh = sc.comb.Fold(row, &sc.arena); !fresh {
					return
				}
			}
			t := int(types.HashRowKey(row, ws.plan.PartKey) % uint64(ws.parts))
			out[t] = append(out[t], row)
		})
	}
	return out
}

// fetch decodes partition part's shuffled input into its receive memory,
// valid until the partition's next fetch: Merge copies every row it keeps.
func (ws *workspace) fetch(sh *cluster.Shuffle, part, worker int) []types.Row {
	sc := &ws.scratch[part]
	sc.recvSlab.Reset()
	sc.recv = sh.FetchTargetInto(sc.recv[:0], &sc.recvSlab, part, worker)
	return sc.recv
}

// fetchSeed copies partition part's base case from the driver into its
// receive memory on worker, with the same lifetime as fetch's rows.
func (ws *workspace) fetchSeed(c *cluster.QueryContext, seed []types.Row, part, worker int) []types.Row {
	sc := &ws.scratch[part]
	sc.recvSlab.Reset()
	sc.recv = c.FetchInto(sc.recv[:0], &sc.recvSlab, seed, -1, worker)
	return sc.recv
}

func aggIdxOf(v *analyze.RecView) int {
	if v.AggIdx >= 0 {
		return v.AggIdx
	}
	return 0
}

// twoStage is Algorithm 4/5: a Map stage (join + partial aggregate +
// shuffle) and a Reduce stage (merge into the all relation, emit delta) per
// iteration.
func (x *execution) twoStage(ctx *exec.Context) (int, error) {
	c, ws := x.c, x.ws
	x.mode = "dsn-two-stage"
	// Seed: merge the base case in one reduce-like stage.
	seeded := x.traced(0, func() {
		x.stage("fixpoint.seed", ws.tasks, (*execution).seedPart, true)
	})
	return x.iterate(seeded, x.total, func(iter int) (int, error) {
		if x.opt.RebuildJoinState {
			var err error
			if x.kernels, err = makeKernels(ws.plan, ctx, c, x.opt); err != nil {
				return 0, err
			}
		}
		return x.traced(iter, func() {
			x.sh = c.NewShuffle(x.parts)
			ws.mapTasks = ws.mapTasks[:0]
			for p := range ws.scratch {
				if !ws.scratch[p].delta.empty() {
					ws.mapTasks = append(ws.mapTasks, ws.tasks[p])
				}
			}
			x.stage("fixpoint.map", ws.mapTasks, (*execution).mapPart, false)
			x.stage("fixpoint.reduce", ws.tasks, (*execution).reducePart, true)
		}), nil
	})
}

func (x *execution) seedPart(p, w int) {
	x.ws.scratch[p].delta = x.merge(&x.front, p, w, x.ws.fetchSeed(x.c, x.seed[p], p, w))
}

func (x *execution) mapPart(p, w int) {
	c, d := x.c, x.ws.scratch[p].delta
	// The delta RDD was produced by the previous Reduce stage on the state
	// owner; a Map task placed elsewhere (the default scheduler's
	// locality-oblivious pickup) fetches it remotely — the inter-iteration
	// locality loss the paper's partition-aware scheduling removes.
	d.Rows = c.Fetch(d.Rows, c.DefaultOwner(p), w)
	x.sh.Add(x.ws.run(c, x.kernels, d, p, w), w)
}

func (x *execution) reducePart(p, w int) {
	x.ws.scratch[p].delta = x.merge(&x.front, p, w, x.receive(x.sh, p, w))
}

// combined is Algorithm 6: one ShuffleMap stage per iteration that merges
// the incoming shuffle data, derives the new delta, joins and partially
// aggregates it, and emits the next shuffle — made possible by
// partition-aware scheduling keeping state, base partition and shuffle
// output on the same worker. Iteration k's stage merges the k-th delta and
// runs the map side of iteration k+1; iteration 0's merges the base case.
func (x *execution) combined() (int, error) {
	c := x.c
	x.mode = "dsn-combined"
	x.sh = c.NewShuffle(x.parts)
	x.sh.Add(x.seed, -1)
	pending := true
	pass := func(iter int) (int, error) {
		return x.traced(iter, func() {
			if !pending {
				// The last map side emitted nothing, so this iteration's
				// delta is empty without a stage.
				return
			}
			x.next = c.NewShuffle(x.parts)
			x.emitted.Store(false)
			x.stage("fixpoint.shufflemap", x.ws.tasks, (*execution).shuffleMapPart, true)
			x.sh, pending = x.next, x.emitted.Load()
		}), nil
	}
	seeded, _ := pass(0)
	return x.iterate(seeded, x.total, pass)
}

func (x *execution) shuffleMapPart(p, w int) {
	d := x.merge(&x.front, p, w, x.receive(x.sh, p, w))
	if d.empty() {
		return
	}
	out := x.ws.run(x.c, x.kernels, d, p, w)
	for _, bucket := range out {
		if len(bucket) > 0 {
			x.emitted.Store(true)
			break
		}
	}
	x.next.Add(out, w)
}

// decomposed is the Section 7.2 execution: with the partition key carried
// by every rule head and all base relations broadcast, each partition
// iterates to its own fixpoint with no synchronization or shuffling at all —
// a single stage for the whole recursion. Its one iteration event spans the
// stage, numbered with the deepest partition's count.
func (x *execution) decomposed() (int, error) {
	c, tr := x.c, x.opt.Tracer
	x.mode = "dsn-decomposed"
	var mark shuffleMark
	if tr.Enabled() {
		mark = markShuffle(c)
	}
	is := tr.BeginIteration(0)
	x.stage("fixpoint.decomposed", x.ws.tasks, (*execution).decomposedPart, true)
	deepest := 0
	for p := range x.ws.scratch {
		deepest = max(deepest, x.ws.scratch[p].iters)
	}
	if err := x.fail.err(); err != nil {
		return deepest, err
	}
	if tr.Enabled() {
		ev := x.event(mark)
		x.front.take(&ev)
		is.EndAt(deepest, ev)
	}
	return deepest, nil
}

// decomposedPart runs partition p's whole local fixpoint in one attempt, so
// a fault anywhere rolls the partition back to its (empty) stage checkpoint
// and replays the fixpoint from the seed — the whole-task replay a
// lineage-free executor loss forces. The attempt's frontier is published
// only when it completes, so a replay counts once.
func (x *execution) decomposedPart(p, w int) {
	f := frontier{split: x.front.split}
	d := x.merge(&f, p, w, x.ws.fetchSeed(x.c, x.seed[p], p, w))
	// Sibling partitions are still merging, so the guard extrapolates from
	// this partition alone.
	n, err := x.iterate(len(d.Rows), func() int { return len(x.rows(p)) * x.parts }, func(int) (int, error) {
		out := x.ws.run(x.c, x.kernels, d, p, w)
		// All output stays in this partition by construction; anything else
		// is a planner bug.
		for t, bucket := range out {
			if len(bucket) > 0 && t != p {
				panic("fixpoint: decomposed plan leaked rows across partitions")
			}
		}
		d = x.merge(&f, p, w, out[p])
		return len(d.Rows), nil
	})
	x.ws.scratch[p].iters = n
	if err != nil {
		x.fail.set(err)
		return
	}
	x.front.addAll(&f)
}
