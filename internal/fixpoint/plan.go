package fixpoint

import (
	"fmt"
	"strings"

	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
)

// JoinStrategy selects the distributed join implementation for
// co-partitioned rules (the paper's Appendix D comparison).
type JoinStrategy uint8

// The join strategies.
const (
	// ShuffleHash builds a cached hash table on the base side once and
	// probes it with delta rows each iteration — the paper's default.
	ShuffleHash JoinStrategy = iota
	// SortMerge sorts the base side once and the delta each iteration,
	// then merges.
	SortMerge
)

// String names the strategy.
func (j JoinStrategy) String() string {
	if j == SortMerge {
		return "sort-merge"
	}
	return "shuffle-hash"
}

// RuleStrategy classifies how one recursive rule executes per iteration.
type RuleStrategy uint8

// The rule strategies.
const (
	// StrategyCoPartition joins the delta with a base relation
	// co-partitioned on the view's partition key (Algorithm 4/5).
	StrategyCoPartition RuleStrategy = iota
	// StrategyBroadcast joins the delta against broadcast copies of every
	// base relation, then shuffles the output.
	StrategyBroadcast
	// StrategyDecomposed is StrategyBroadcast without the output shuffle:
	// the head carries the partition key, so every partition iterates to
	// its own fixpoint independently (Section 7.2).
	StrategyDecomposed
)

// String names the strategy.
func (s RuleStrategy) String() string {
	switch s {
	case StrategyCoPartition:
		return "co-partition"
	case StrategyBroadcast:
		return "broadcast"
	default:
		return "decomposed"
	}
}

// probeStep is one hash/broadcast join in a rule's per-iteration pipeline:
// the source at Source joins to already-bound sources on BuildCols,
// probed with values from bound positions.
type probeStep struct {
	// Source is the rule-source index being joined in.
	Source int
	// BuildCols are the key columns on the new source.
	BuildCols []int
	// ProbeFrom lists (sourceIdx, colIdx) pairs, aligned with BuildCols,
	// read from the bound side.
	ProbeFrom [][2]int
	// Filters are residual conjuncts that become fully bound once this
	// source is joined.
	Filters []expr.Expr
}

// RulePlan is the physical plan of one recursive rule.
type RulePlan struct {
	Rule *analyze.Rule
	// RecIdx is the rule-source index of the recursive reference.
	RecIdx int
	// Strategy picks the execution shape.
	Strategy RuleStrategy
	// CoPartSource is the base source joined co-partitioned (strategy
	// co-partition only); CoPartBuildCols are its join key columns, and
	// CoPartProbeCols the matching delta columns.
	CoPartSource    int
	CoPartBuildCols []int
	CoPartProbeCols []int
	// Steps are the remaining joins (broadcast), in execution order.
	Steps []probeStep
	// InitialFilters are conjuncts over the delta source alone.
	InitialFilters []expr.Expr
	// UseIncrements marks that delta rows feed the rule with the
	// aggregate column replaced by the increment (additive views).
	UseIncrements bool
	// NewGroupsOnly marks that only first-derivation delta tuples feed
	// the rule (additive head not aggregating the source value).
	NewGroupsOnly bool
}

// Plan is the distributed physical plan of a clique.
type Plan struct {
	View *analyze.RecView
	// PartKey lists the view columns the state and deltas are hash
	// partitioned on.
	PartKey []int
	// Decomposed is true when every rule is decomposed, enabling the
	// no-global-synchronization execution of Section 7.2.
	Decomposed bool
	Rules      []*RulePlan
}

// ErrNotDistributable explains why a clique needs the local engine.
type ErrNotDistributable struct{ Reason string }

// Error implements error.
func (e *ErrNotDistributable) Error() string {
	return "fixpoint: clique not distributable: " + e.Reason
}

// PlanDistributed builds the distributed plan for a clique, or reports why
// the clique must fall back to the local engine. The distributed engine
// covers single-view linear recursion — every workload the paper
// benchmarks; mutual recursion and non-linear rules use the exact local
// engine.
func PlanDistributed(clique *analyze.Clique) (*Plan, error) {
	if len(clique.Views) != 1 {
		return nil, &ErrNotDistributable{Reason: fmt.Sprintf("mutual recursion over %d views", len(clique.Views))}
	}
	v := clique.Views[0]
	for _, r := range v.RecRules {
		if len(r.RecSources) != 1 {
			return nil, &ErrNotDistributable{Reason: "non-linear rule (multiple recursive references)"}
		}
	}

	key, decomposed := v.PartitionKey()
	p := &Plan{View: v, PartKey: key, Decomposed: decomposed}
	for _, r := range v.RecRules {
		rp, err := planRule(r, key, decomposed)
		if err != nil {
			return nil, err
		}
		if decomposed {
			rp.Strategy = StrategyDecomposed
		}
		p.Rules = append(p.Rules, rp)
	}
	return p, nil
}

// planRule lays out one rule's join pipeline: optionally a co-partitioned
// primary join, then broadcast probes for the remaining sources, with every
// conjunct applied at the earliest point it is fully bound.
func planRule(r *analyze.Rule, partKey []int, forceBroadcast bool) (*RulePlan, error) {
	rec := r.RecSources[0]
	rp := &RulePlan{Rule: r, RecIdx: rec, CoPartSource: -1, Strategy: StrategyBroadcast}
	rp.UseIncrements, rp.NewGroupsOnly = deltaMode(r)

	// Classify conjuncts: equi-joins between sources vs filters.
	type ej struct {
		e  expr.Expr
		j  expr.EquiJoin
		ok bool
	}
	conj := make([]ej, len(r.Conjuncts))
	for i, c := range r.Conjuncts {
		j, ok := expr.AsEquiJoin(c)
		conj[i] = ej{e: c, j: j, ok: ok}
	}
	used := make([]bool, len(conj))

	// Try a co-partitioned primary join: a base source whose equi-join
	// columns against the recursive source cover exactly the partition
	// key on the recursive side.
	if !forceBroadcast {
		if si := r.CoPartitionSource(partKey); si >= 0 {
			rp.Strategy = StrategyCoPartition
			rp.CoPartSource = si
			var idxs []int
			rp.CoPartProbeCols, rp.CoPartBuildCols, idxs = r.JoinCols(si)
			for _, ci := range idxs {
				used[ci] = true
			}
		}
	}

	// Remaining sources join via broadcast in declaration order; each
	// step's build key comes from equi-joins against bound sources.
	bound := map[int]bool{rec: true}
	if rp.CoPartSource >= 0 {
		bound[rp.CoPartSource] = true
	}
	// Filters bound by the initial delta (and co-partition join) apply
	// first.
	takeFilters := func() []expr.Expr {
		var out []expr.Expr
		for ci, c := range conj {
			if used[ci] {
				continue
			}
			ready := true
			for in := range expr.Inputs(c.e) {
				if !bound[in] {
					ready = false
					break
				}
			}
			if ready {
				used[ci] = true
				out = append(out, c.e)
			}
		}
		return out
	}
	rp.InitialFilters = takeFilters()

	for si := range r.Sources {
		if bound[si] {
			continue
		}
		step := probeStep{Source: si}
		for ci, c := range conj {
			if used[ci] || !c.ok {
				continue
			}
			j := c.j
			switch {
			case j.RightInput == si && bound[j.LeftInput]:
				step.BuildCols = append(step.BuildCols, j.RightCol)
				step.ProbeFrom = append(step.ProbeFrom, [2]int{j.LeftInput, j.LeftCol})
				used[ci] = true
			case j.LeftInput == si && bound[j.RightInput]:
				step.BuildCols = append(step.BuildCols, j.LeftCol)
				step.ProbeFrom = append(step.ProbeFrom, [2]int{j.RightInput, j.RightCol})
				used[ci] = true
			}
		}
		bound[si] = true
		step.Filters = takeFilters()
		rp.Steps = append(rp.Steps, step)
	}
	for ci, u := range used {
		if !u {
			return nil, &ErrNotDistributable{Reason: "conjunct not schedulable: " + conj[ci].e.String()}
		}
	}
	return rp, nil
}

// deltaMode decides how a rule consumes its recursive delta (mirrors the
// local engine's deltaRowsFor).
func deltaMode(r *analyze.Rule) (useIncrements, newGroupsOnly bool) {
	v := r.View
	if !v.Agg.Additive() {
		return false, false
	}
	src := r.Sources[r.RecSources[0]]
	if src.Rec.IsAgg() && src.Rec.Agg.Additive() && headAggregatesValue(r, r.RecSources[0]) {
		return true, false
	}
	return false, true
}

// Describe renders the plan for EXPLAIN output.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fixpoint[%s] partitionKey=%v decomposed=%v\n", p.View.Name, p.PartKey, p.Decomposed)
	if p.View.IsAgg() {
		fmt.Fprintf(&b, "  aggregate: %s() AS %s, implicit group by %v\n",
			p.View.Agg, p.View.Schema.Columns[p.View.AggIdx].Name, p.View.GroupIdx)
	}
	for i, rp := range p.Rules {
		fmt.Fprintf(&b, "  rule %d: strategy=%s", i, rp.Strategy)
		if rp.CoPartSource >= 0 {
			fmt.Fprintf(&b, " copartBase=%s on %v", rp.Rule.Sources[rp.CoPartSource].Binding, rp.CoPartBuildCols)
		}
		for _, s := range rp.Steps {
			fmt.Fprintf(&b, " broadcast=%s on %v", rp.Rule.Sources[s.Source].Binding, s.BuildCols)
		}
		if rp.UseIncrements {
			b.WriteString(" delta=increments")
		}
		if rp.NewGroupsOnly {
			b.WriteString(" delta=new-groups")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
