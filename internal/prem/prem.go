// Package prem implements the paper's PreM (Pre-Mappability) tooling
// (Section 3 and Appendix G):
//
//   - algebraic property checks — γ(T(R)) = γ(T(γ(R))) validated directly
//     on relations, the definition from Section 3;
//   - the Appendix G query rewrite, producing the PreM-checking version of
//     an endo-min/max query (the un-minimized `all` twin view);
//   - the GPtest-style step checker: it drives the original query and its
//     PreM-checking version through the naive fixpoint iteration by
//     iteration and reports the first step at which the aggregated results
//     diverge (Theorem G.1: if they never do, the fixpoint computes the
//     stratified version's perfect model).
package prem

import (
	"fmt"
	"strings"

	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/types"
)

// Report is the outcome of a GPtest run.
type Report struct {
	// Holds is true when no divergence was observed.
	Holds bool
	// FailedIteration is the first diverging step (1-based), 0 if none.
	FailedIteration int
	// Iterations is the number of steps checked.
	Iterations int
	// Converged is true when both versions reached their fixpoints within
	// the iteration budget; false means PreM was verified only up to the
	// budget (e.g. cyclic SSSP, whose un-aggregated twin never
	// terminates).
	Converged bool
	// Detail describes a failure (empty when Holds).
	Detail string
}

// String renders the report.
func (r *Report) String() string {
	switch {
	case !r.Holds:
		return fmt.Sprintf("PreM VIOLATED at iteration %d: %s", r.FailedIteration, r.Detail)
	case r.Converged:
		return fmt.Sprintf("PreM holds: verified at each of %d iterations to the fixpoint", r.Iterations)
	default:
		return fmt.Sprintf("PreM holds for the first %d iterations (un-aggregated twin still growing; increase the budget for more)", r.Iterations)
	}
}

// Check runs the GPtest procedure on an analyzed program whose clique is a
// single recursive view with a min or max head, against the base tables in
// ctx. maxIter bounds the stepping (0 = 1000).
func Check(prog *analyze.Program, ctx *exec.Context, maxIter int) (*Report, error) {
	if maxIter <= 0 {
		maxIter = 1000
	}
	v, err := targetView(prog)
	if err != nil {
		return nil, err
	}
	twinClique, origClique := twin(prog.Clique, v)

	origState := map[string]*relation.Relation{
		strings.ToLower(v.Name): relation.New(v.Name, v.Schema),
	}
	twinState := map[string]*relation.Relation{
		strings.ToLower(v.Name): relation.New(v.Name, v.Schema),
	}

	rep := &Report{Holds: true}
	origDone, twinDone := false, false
	for step := 1; step <= maxIter; step++ {
		rep.Iterations = step
		var origChanged, twinChanged bool
		if !origDone {
			origState, origChanged, err = fixpoint.NaiveStep(origClique, origState, ctx)
			if err != nil {
				return nil, err
			}
			origDone = !origChanged
		}
		if !twinDone {
			twinState, twinChanged, err = fixpoint.NaiveStep(twinClique, twinState, ctx)
			if err != nil {
				return nil, err
			}
			twinDone = !twinChanged
		}
		// Compare γ(T(I)) — the twin's aggregated state — against
		// γ(T(γ(I))) — the original's state.
		agg := twinState[strings.ToLower(v.Name)].Aggregate(v.GroupIdx, v.AggIdx, v.Agg)
		if !agg.EqualAsSet(origState[strings.ToLower(v.Name)]) {
			rep.Holds = false
			rep.FailedIteration = step
			rep.Detail = diffDetail(agg, origState[strings.ToLower(v.Name)])
			return rep, nil
		}
		if origDone && twinDone {
			rep.Converged = true
			return rep, nil
		}
	}
	return rep, nil
}

func targetView(prog *analyze.Program) (*analyze.RecView, error) {
	if prog.Clique == nil || len(prog.Clique.Views) != 1 {
		return nil, fmt.Errorf("prem: GPtest applies to a single recursive view")
	}
	v := prog.Clique.Views[0]
	switch v.Agg {
	case types.AggMin, types.AggMax:
		return v, nil
	case types.AggSum, types.AggCount:
		return nil, fmt.Errorf("prem: %s-in-recursion is justified by the monotonic counting argument (Section 3), not PreM checking; nothing to test", v.Agg)
	default:
		return nil, fmt.Errorf("prem: view %s has no aggregate in its head", v.Name)
	}
}

// twin builds two single-view cliques sharing the rule structure: the
// original, and the un-aggregated twin whose rules are identical but whose
// head drops the extremum (set semantics) — the `all` view of Appendix G.
func twin(clique *analyze.Clique, v *analyze.RecView) (twinClique, origClique *analyze.Clique) {
	tv := &analyze.RecView{
		Name:   v.Name,
		Schema: v.Schema,
		Agg:    types.AggNone,
		AggIdx: -1,
		Index:  0,
	}
	for i := 0; i < v.Schema.Len(); i++ {
		tv.GroupIdx = append(tv.GroupIdx, i)
	}
	reown := func(rules []*analyze.Rule, owner *analyze.RecView) []*analyze.Rule {
		out := make([]*analyze.Rule, len(rules))
		for i, r := range rules {
			nr := *r
			nr.View = owner
			nr.Sources = append([]analyze.Source(nil), r.Sources...)
			for si := range nr.Sources {
				if nr.Sources[si].Kind == analyze.SourceRec {
					nr.Sources[si].Rec = owner
				}
			}
			out[i] = &nr
		}
		return out
	}
	tv.BaseRules = reown(v.BaseRules, tv)
	tv.RecRules = reown(v.RecRules, tv)
	return &analyze.Clique{Views: []*analyze.RecView{tv}}, clique
}

func diffDetail(a, b *relation.Relation) string {
	return fmt.Sprintf("γ(T(I)) has %d rows, γ(T(γ(I))) has %d rows; first sample: %s vs %s",
		a.Len(), b.Len(), sample(a), sample(b))
}

func sample(r *relation.Relation) string {
	if r.Len() == 0 {
		return "(empty)"
	}
	return r.Clone().Sort().Rows[0].String()
}
