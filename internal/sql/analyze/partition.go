package analyze

import (
	"slices"

	"github.com/rasql/rasql-go/internal/sql/expr"
)

// This file derives a recursive view's partitioning facts once: the
// distributed planner (internal/fixpoint) builds its plan from them, and
// vet's co-partition lint (RV020, RV021) reports on the same answers. They
// are defined for the cliques the planner accepts: one view whose
// recursive rules each reference it exactly once.

// GroupKey returns the view's default partition key: the implicit group-by
// of an aggregate view, every column of a set view.
func (v *RecView) GroupKey() []int {
	if v.IsAgg() {
		return slices.Clone(v.GroupIdx)
	}
	key := make([]int, v.Schema.Len())
	for i := range key {
		key[i] = i
	}
	return key
}

// CarriedColumns returns the view columns that every recursive rule copies
// verbatim from the recursive source (head[i] ≡ rec.col[i]): the columns
// whose partitioning survives an iteration.
func (v *RecView) CarriedColumns() []int {
	var out []int
	for i := 0; i < v.Schema.Len(); i++ {
		ok := len(v.RecRules) > 0
		for _, r := range v.RecRules {
			c, isCol := r.Head[i].(*expr.Col)
			if !isCol || c.Input != r.RecSources[0] || c.Idx != i {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// PartitionKey returns the columns the view's state and deltas are hash
// partitioned on, and whether execution decomposes (Section 7.2).
//
// When some columns are carried and, for an aggregate view, all of them
// lie in the group key, the key is the carried columns and every partition
// iterates to its own fixpoint. Otherwise the key is GroupKey, except that
// an aggregate view whose recursive rules do not all join on the full group
// key narrows it to a subset they all join on: the group key still
// determines the partition, so grouping stays partition-local. Among such
// subsets the longest wins, then the lexicographically smallest.
func (v *RecView) PartitionKey() (key []int, decomposed bool) {
	carried := v.CarriedColumns()
	if len(carried) > 0 && (!v.IsAgg() || subsetOf(carried, v.GroupIdx)) {
		return carried, true
	}
	key = v.GroupKey()
	if !v.IsAgg() || len(v.RecRules) == 0 || v.joinedByEveryRule(key) {
		return key, false
	}
	var best []int
	r := v.RecRules[0]
	for si := range r.Sources {
		if si == r.RecSources[0] || r.Sources[si].Kind == SourceRec {
			continue
		}
		cand, _, _ := r.JoinCols(si)
		if len(cand) == 0 || !subsetOf(cand, v.GroupIdx) || !v.joinedByEveryRule(cand) {
			continue
		}
		cand = slices.Clone(cand)
		slices.Sort(cand)
		if best == nil || len(cand) > len(best) ||
			(len(cand) == len(best) && slices.Compare(cand, best) < 0) {
			best = cand
		}
	}
	if best != nil {
		key = best
	}
	return key, false
}

func (v *RecView) joinedByEveryRule(key []int) bool {
	for _, r := range v.RecRules {
		if r.CoPartitionSource(key) < 0 {
			return false
		}
	}
	return true
}

func subsetOf(cols, set []int) bool {
	for _, c := range cols {
		if !slices.Contains(set, c) {
			return false
		}
	}
	return true
}

// JoinCols returns the equi-joins between the rule's recursive source and
// the non-recursive source si: the recursive-side columns, the aligned
// columns of si, and the indices of the conjuncts that state them.
func (r *Rule) JoinCols(si int) (recCols, srcCols, conjuncts []int) {
	rec := r.RecSources[0]
	for ci, c := range r.Conjuncts {
		j, ok := expr.AsEquiJoin(c)
		switch {
		case !ok:
		case j.LeftInput == rec && j.RightInput == si:
			recCols = append(recCols, j.LeftCol)
			srcCols = append(srcCols, j.RightCol)
			conjuncts = append(conjuncts, ci)
		case j.RightInput == rec && j.LeftInput == si:
			recCols = append(recCols, j.RightCol)
			srcCols = append(srcCols, j.LeftCol)
			conjuncts = append(conjuncts, ci)
		}
	}
	return recCols, srcCols, conjuncts
}

// CoPartitionSource returns the first non-recursive source whose join with
// the recursive source covers key, so the rule can join each partition of
// the delta locally, or -1 when no source does.
func (r *Rule) CoPartitionSource(key []int) int {
	for si, s := range r.Sources {
		if si == r.RecSources[0] || s.Kind == SourceRec {
			continue
		}
		if cols, _, _ := r.JoinCols(si); SameColumns(cols, key) {
			return si
		}
	}
	return -1
}

// SameColumns reports whether a and b hold the same columns with the same
// multiplicities, in any order. An empty list matches nothing: a join on no
// columns covers no partition key.
func SameColumns(a, b []int) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	count := func(s []int, x int) (n int) {
		for _, y := range s {
			if y == x {
				n++
			}
		}
		return n
	}
	for _, x := range a {
		if count(a, x) != count(b, x) {
			return false
		}
	}
	return true
}
