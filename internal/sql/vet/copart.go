package vet

import (
	"fmt"
	"slices"

	"github.com/rasql/rasql-go/internal/sql/analyze"
)

// lintCoPartition reports how the clique's recursive joins interact with
// partitioning. The distributed engine (internal/fixpoint) joins each
// iteration's delta against a base relation; when the equi-join columns on
// the recursive side cover the view's partition key, the join runs
// co-partitioned and no delta row leaves its worker (Algorithm 4/5).
// Otherwise every iteration broadcasts or reshuffles — the dominant cost
// for deep recursions. Both the planner and this lint read the partition
// key from analyze's RecView.PartitionKey:
//
//   - RV021 (info): an aggregate view's key is narrowed from the full
//     group-by to a subset every recursive rule joins on; the planner
//     adopts it.
//   - RV020 (warning): a rule whose join keys cover no usable partition
//     key — the delta reshuffles every iteration and no automatic fix
//     exists.
//
// The lint applies where the planner does: one view, linear rules, at
// least one recursive rule. Decomposed execution never shuffles, so a
// decomposed view has nothing to lint.
func lintCoPartition(r *Report, clique *analyze.Clique) {
	if len(clique.Views) != 1 {
		return
	}
	v := clique.Views[0]
	if len(v.RecRules) == 0 {
		return
	}
	for _, rule := range v.RecRules {
		if len(rule.RecSources) != 1 {
			return
		}
	}
	key, decomposed := v.PartitionKey()
	if decomposed {
		return
	}
	if group := v.GroupKey(); !slices.Equal(key, group) {
		r.add(Diagnostic{
			Code: "RV021", Severity: SeverityInfo, View: v.Name,
			Message: fmt.Sprintf("partition key narrowed from the full group-by %v to %v so every recursive rule joins co-partitioned; the planner applies this automatically", group, key),
		})
		return
	}
	for _, rule := range v.RecRules {
		if rule.CoPartitionSource(key) >= 0 {
			continue
		}
		r.add(Diagnostic{
			Code: "RV020", Severity: SeverityWarning, View: v.Name, Rule: ruleLabel(v, rule),
			Message: fmt.Sprintf("recursive join keys do not cover the partition key %v: the delta cannot stay co-partitioned and reshuffles (broadcast join) every iteration", key),
			Hint:    "join the recursive reference on its grouping columns, or carry the partition key through the head to enable decomposed execution",
		})
	}
}
