package fixpoint

import (
	"sort"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// deltaBatch is the per-partition frontier in consumable form: rows, plus
// increments and first-derivation flags for aggregate views.
type deltaBatch struct {
	Rows []types.Row
	Incs []types.Value
	News []bool
}

func (d deltaBatch) empty() bool { return len(d.Rows) == 0 }

// streamRows adapts the batch to one rule's delta mode. Anything it has to
// build comes out of sc and is valid until the next rule's stream.
func (d deltaBatch) streamRows(rp *RulePlan, aggIdx int, sc *stepScratch) []types.Row {
	switch {
	case rp.UseIncrements:
		if d.Incs == nil {
			// A naive frontier carries totals, not increments (the
			// Spark-SQL-Naive baseline re-aggregates from scratch).
			return d.Rows
		}
		out := sc.stream[:0]
		for i, r := range d.Rows {
			nr := sc.arena.Clone(r)
			nr[aggIdx] = d.Incs[i]
			out = append(out, nr)
		}
		sc.stream = out
		return out
	case rp.NewGroupsOnly:
		out := sc.stream[:0]
		for i, r := range d.Rows {
			if d.News == nil || d.News[i] {
				out = append(out, r)
			}
		}
		sc.stream = out
		return out
	default:
		return d.Rows
	}
}

// copartBase is a co-partitioned base relation cached per partition: hash
// tables for shuffle-hash joins, or sorted runs for sort-merge.
type copartBase struct {
	buildCols []int
	// tables[p] is partition p's hash table (shuffle-hash mode).
	tables []*cluster.RowTable
	// sorted[p] holds partition p's rows ordered by join key, with keys
	// aligned (sort-merge mode).
	sorted [][]types.Row
	keys   [][]string
	owner  []int
}

// buildCopart partitions and caches a base relation on its join columns.
// The build happens once, in parallel, and is reused by every iteration —
// the paper's cached build side (Appendix D).
func buildCopart(c *cluster.QueryContext, rows []types.Row, buildCols []int, join JoinStrategy) *copartBase {
	parts := c.Partitions()
	cb := &copartBase{buildCols: buildCols, owner: make([]int, parts)}
	bucketed := make([][]types.Row, parts)
	for _, r := range rows {
		p := int(types.HashRowKey(r, buildCols) % uint64(parts))
		bucketed[p] = append(bucketed[p], r)
	}
	if join == SortMerge {
		cb.sorted = make([][]types.Row, parts)
		cb.keys = make([][]string, parts)
	} else {
		cb.tables = make([]*cluster.RowTable, parts)
	}
	tasks := make([]cluster.Task, parts)
	for i := range tasks {
		p := i
		tasks[i] = cluster.Task{Part: p, Preferred: c.DefaultOwner(p), Run: func(w int) {
			cb.owner[p] = w
			if join == SortMerge {
				rs := append([]types.Row(nil), bucketed[p]...)
				ks := make([]string, len(rs))
				for j, r := range rs {
					ks[j] = types.KeyString(r, buildCols)
				}
				sort.Sort(&keyedRows{rows: rs, keys: ks})
				cb.sorted[p] = rs
				cb.keys[p] = ks
				return
			}
			cb.tables[p] = cluster.BuildRowTable(bucketed[p], buildCols)
		}}
	}
	c.RunStage("copart.build", tasks)
	return cb
}

type keyedRows struct {
	rows []types.Row
	keys []string
}

func (k *keyedRows) Len() int           { return len(k.rows) }
func (k *keyedRows) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedRows) Swap(i, j int) {
	k.rows[i], k.rows[j] = k.rows[j], k.rows[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}

// ruleKernel executes one rule's per-iteration pipeline on one partition.
type ruleKernel struct {
	rp     *RulePlan
	copart *copartBase
	// bcasts aligns with rp.Steps.
	bcasts  []*cluster.Broadcast
	volcano bool
	join    JoinStrategy
}

// run streams the delta through the rule's joins and filters, invoking emit
// with a complete environment for each result. part/worker locate cached
// state for the co-partitioned base.
func (k *ruleKernel) run(c *cluster.QueryContext, delta []types.Row, part, worker int, sc *stepScratch, emit func(expr.Env)) {
	if k.volcano {
		k.runVolcano(c, delta, part, worker, emit)
		return
	}
	k.runFused(c, delta, part, worker, sc, emit)
}

// copartTable returns the co-partitioned base's hash table for a partition
// as seen from the executing worker: free for the owner, a fetch-and-build
// for anyone else (hybrid scheduling pays here).
func (k *ruleKernel) copartTable(c *cluster.QueryContext, part, worker int) *cluster.RowTable {
	if k.copart.owner[part] == worker {
		return k.copart.tables[part]
	}
	rows := k.copart.tables[part].Rows()
	fetched := c.Fetch(rows, k.copart.owner[part], worker)
	return cluster.BuildRowTable(fetched, k.copart.buildCols)
}

// runFused is the "code generation" execution mode: the whole pipeline is
// collapsed into nested loops over closures, no per-row interface calls —
// the structural analog of Spark's whole-stage codegen (Section 7.3).
func (k *ruleKernel) runFused(c *cluster.QueryContext, delta []types.Row, part, worker int, sc *stepScratch, emit func(expr.Env)) {
	rp := k.rp
	n := len(rp.Rule.Sources)
	if cap(sc.env) < n {
		sc.env = make(expr.Env, n)
	}
	env := sc.env[:n]
	clear(env)
	// One probe key per join step: a step is done with its key once
	// ProbeValues returns, and only deeper steps run before its next probe.
	keys := sc.keys[:0]
	for _, st := range rp.Steps {
		keys = append(keys, sc.arena.Alloc(len(st.BuildCols)))
	}
	sc.keys = keys

	var runSteps func(step int)
	runSteps = func(step int) {
		if step == len(rp.Steps) {
			emit(env)
			return
		}
		st := rp.Steps[step]
		key := keys[step]
		for i, pf := range st.ProbeFrom {
			key[i] = env[pf[0]][pf[1]]
		}
		table := k.bcasts[step].Table(worker)
		for _, m := range table.ProbeValues(key) {
			env[st.Source] = m
			ok := true
			for _, f := range st.Filters {
				if !f.Eval(env).Truthy() {
					ok = false
					break
				}
			}
			if ok {
				runSteps(step + 1)
			}
		}
	}

	afterPrimary := func() {
		ok := true
		for _, f := range rp.InitialFilters {
			if !f.Eval(env).Truthy() {
				ok = false
				break
			}
		}
		if ok {
			runSteps(0)
		}
	}

	if rp.Strategy != StrategyCoPartition {
		for _, d := range delta {
			env[rp.RecIdx] = d
			afterPrimary()
		}
		return
	}

	if k.join == SortMerge {
		k.runSortMerge(delta, part, env, afterPrimary)
		return
	}
	table := k.copartTable(c, part, worker)
	for _, d := range delta {
		env[rp.RecIdx] = d
		for _, m := range table.ProbeRow(d, rp.CoPartProbeCols) {
			env[rp.CoPartSource] = m
			afterPrimary()
		}
	}
}

// runSortMerge performs the co-partitioned join by sorting the delta and
// merging against the pre-sorted base run.
func (k *ruleKernel) runSortMerge(delta []types.Row, part int, env expr.Env, sink func()) {
	rp := k.rp
	ds := append([]types.Row(nil), delta...)
	dk := make([]string, len(ds))
	for i, r := range ds {
		dk[i] = types.KeyString(r, rp.CoPartProbeCols)
	}
	sort.Sort(&keyedRows{rows: ds, keys: dk})
	bs, bk := k.copart.sorted[part], k.copart.keys[part]

	i, j := 0, 0
	for i < len(ds) && j < len(bs) {
		switch {
		case dk[i] < bk[j]:
			i++
		case dk[i] > bk[j]:
			j++
		default:
			j2 := j
			for i < len(ds) && dk[i] == bk[j] {
				env[rp.RecIdx] = ds[i]
				for j2 = j; j2 < len(bs) && bk[j2] == dk[i]; j2++ {
					env[rp.CoPartSource] = bs[j2]
					sink()
				}
				i++
			}
			j = j2
		}
	}
}

// Volcano execution: the classical iterator model the paper's Section 7.3
// contrasts with code generation — every row passes through Next() virtual
// calls on each operator.

type volcanoOp interface {
	next() (expr.Env, bool)
}

type deltaScanOp struct {
	rows []types.Row
	rec  int
	n    int
	i    int
}

func (o *deltaScanOp) next() (expr.Env, bool) {
	if o.i >= len(o.rows) {
		return nil, false
	}
	env := make(expr.Env, o.n)
	env[o.rec] = o.rows[o.i]
	o.i++
	return env, true
}

type hashJoinOp struct {
	child     volcanoOp
	table     *cluster.RowTable
	probeCols []int // columns of env[recProbe] when recProbe >= 0
	probeFrom [][2]int
	recProbe  int // when >= 0, probe key comes from env[recProbe] at probeCols
	source    int

	cur     expr.Env
	matches []types.Row
	mi      int
}

func (o *hashJoinOp) next() (expr.Env, bool) {
	for {
		for o.mi < len(o.matches) {
			env := make(expr.Env, len(o.cur))
			copy(env, o.cur)
			env[o.source] = o.matches[o.mi]
			o.mi++
			return env, true
		}
		env, ok := o.child.next()
		if !ok {
			return nil, false
		}
		if o.recProbe >= 0 {
			o.matches = o.table.ProbeRow(env[o.recProbe], o.probeCols)
		} else {
			k := make([]types.Value, len(o.probeFrom))
			for i, pf := range o.probeFrom {
				k[i] = env[pf[0]][pf[1]]
			}
			o.matches = o.table.ProbeValues(k)
		}
		o.cur = env
		o.mi = 0
	}
}

type filterOp struct {
	child   volcanoOp
	filters []expr.Expr
}

func (o *filterOp) next() (expr.Env, bool) {
	for {
		env, ok := o.child.next()
		if !ok {
			return nil, false
		}
		pass := true
		for _, f := range o.filters {
			if !f.Eval(env).Truthy() {
				pass = false
				break
			}
		}
		if pass {
			return env, true
		}
	}
}

func (k *ruleKernel) runVolcano(c *cluster.QueryContext, delta []types.Row, part, worker int, emit func(expr.Env)) {
	rp := k.rp
	var op volcanoOp = &deltaScanOp{rows: delta, rec: rp.RecIdx, n: len(rp.Rule.Sources)}
	if rp.Strategy == StrategyCoPartition {
		op = &hashJoinOp{
			child:     op,
			table:     k.copartTable(c, part, worker),
			probeCols: rp.CoPartProbeCols,
			recProbe:  rp.RecIdx,
			source:    rp.CoPartSource,
		}
	}
	if len(rp.InitialFilters) > 0 {
		op = &filterOp{child: op, filters: rp.InitialFilters}
	}
	for si, st := range rp.Steps {
		op = &hashJoinOp{
			child:     op,
			table:     k.bcasts[si].Table(worker),
			probeFrom: st.ProbeFrom,
			recProbe:  -1,
			source:    st.Source,
		}
		if len(st.Filters) > 0 {
			op = &filterOp{child: op, filters: st.Filters}
		}
	}
	for {
		env, ok := op.next()
		if !ok {
			return
		}
		emit(env)
	}
}
