// Package vet implements `rasql vet`: a multi-pass static analyzer over
// the analyzed Program / Recursive Clique Plan (the output of
// internal/sql/analyze) that certifies PreM and lints recursive-clique
// plans at compile time, before any cluster time is spent.
//
// The passes, and their diagnostic codes:
//
//   - static PreM certification (RV001–RV003): recognizes the
//     constant/monotone-increment patterns of "Monotonic Properties of
//     Completed Aggregates in Recursive Queries" and "Fixpoint Semantics
//     and Optimization of Recursive Datalog Programs with Aggregates"
//     (Zaniolo et al.) under which γ(T(R)) = γ(T(γ(R))) holds for min/max
//     heads, plus the positive-contribution conditions that justify
//     count/sum in recursion, returning Certified, Refuted (with the
//     counter-pattern) or Inconclusive;
//   - termination lint (RV010): count/sum recursion over potentially
//     cyclic sources diverges; the dynamic engine only catches it after
//     burning its iteration budget;
//   - plan hygiene lints (RV020–RV041): recursive joins whose keys defeat
//     co-partitioning (forcing a reshuffle every iteration), cartesian
//     sources, unused views, and degenerate implicit group-bys.
//
// Every diagnostic carries a stable RVxxx code, a severity, the offending
// view/rule, and a remediation hint. The co-partitioning lint reports the
// planner's own partition key: both read it from internal/sql/analyze
// (RecView.PartitionKey), so a diagnostic never disagrees with the plan.
package vet

import (
	"fmt"
	"strings"

	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/expr"
	"github.com/rasql/rasql-go/internal/types"
)

// Severity ranks a diagnostic.
type Severity uint8

// The severities.
const (
	// SeverityError marks plans the engine should refuse to run (e.g. a
	// statically refuted PreM assumption would compute wrong answers).
	SeverityError Severity = iota
	// SeverityWarning marks plans that run but likely diverge or waste
	// cluster time.
	SeverityWarning
	// SeverityInfo reports certifications and automatic plan adjustments.
	SeverityInfo
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	default:
		return "info"
	}
}

// Verdict is the outcome of static PreM certification for one view.
type Verdict uint8

// The verdicts.
const (
	// VerdictNotApplicable marks set-semantics views (no aggregate head).
	VerdictNotApplicable Verdict = iota
	// VerdictCertified means the aggregate is provably pre-mappable /
	// monotone: pushing it into the fixpoint is safe on every input.
	VerdictCertified
	// VerdictRefuted means a counter-pattern was found: inputs exist on
	// which the aggregate-in-recursion answer diverges from the stratified
	// semantics.
	VerdictRefuted
	// VerdictInconclusive means the rules fall outside the recognized
	// patterns; validate with the dynamic GPtest instead.
	VerdictInconclusive
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictCertified:
		return "certified"
	case VerdictRefuted:
		return "refuted"
	case VerdictInconclusive:
		return "inconclusive"
	default:
		return "not-applicable"
	}
}

// Diagnostic is one finding, with a stable code and a remediation hint.
type Diagnostic struct {
	// Code is the stable diagnostic code, e.g. "RV002".
	Code string
	// Severity ranks the finding.
	Severity Severity
	// View names the offending view ("" for program-scope findings).
	View string
	// Rule locates the offending rule within the view, e.g.
	// "recursive rule 1" ("" when the finding is view- or program-wide).
	Rule string
	// Message states the finding.
	Message string
	// Hint suggests a remediation.
	Hint string
}

// String renders the diagnostic on one line (plus an indented hint).
func (d Diagnostic) String() string {
	var b strings.Builder
	b.WriteString(d.Code)
	b.WriteByte(' ')
	b.WriteString(d.Severity.String())
	if d.View != "" || d.Rule != "" {
		b.WriteString(" [")
		b.WriteString(d.View)
		if d.View != "" && d.Rule != "" {
			b.WriteByte(' ')
		}
		b.WriteString(d.Rule)
		b.WriteByte(']')
	}
	b.WriteString(": ")
	b.WriteString(d.Message)
	if d.Hint != "" {
		b.WriteString("\n    hint: ")
		b.WriteString(d.Hint)
	}
	return b.String()
}

// ViewVerdict pairs a clique view with its PreM verdict.
type ViewVerdict struct {
	View    string
	Verdict Verdict
}

// Report is the result of analyzing one program (or several, when merged).
type Report struct {
	Diagnostics []Diagnostic
	// Views holds the PreM verdict of every recursive-clique view, in
	// clique order.
	Views []ViewVerdict
}

func (r *Report) add(d Diagnostic) { r.Diagnostics = append(r.Diagnostics, d) }

// Merge appends another report's findings (used when vetting scripts with
// several statements).
func (r *Report) Merge(o *Report) {
	r.Diagnostics = append(r.Diagnostics, o.Diagnostics...)
	r.Views = append(r.Views, o.Views...)
}

// HasErrors reports whether any diagnostic is error-severity.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Verdict folds the per-view verdicts into one program verdict: Refuted
// dominates, then Inconclusive, then Certified; a program whose clique has
// no aggregate views is NotApplicable.
func (r *Report) Verdict() Verdict {
	out := VerdictNotApplicable
	for _, v := range r.Views {
		switch v.Verdict {
		case VerdictRefuted:
			return VerdictRefuted
		case VerdictInconclusive:
			out = VerdictInconclusive
		case VerdictCertified:
			if out == VerdictNotApplicable {
				out = VerdictCertified
			}
		}
	}
	return out
}

// String renders every diagnostic followed by the per-view verdicts.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	for _, v := range r.Views {
		if v.Verdict == VerdictNotApplicable {
			continue
		}
		fmt.Fprintf(&b, "PreM[%s]: %s\n", v.View, v.Verdict)
	}
	return b.String()
}

// Analyze runs every pass over an analyzed program and returns the report.
func Analyze(prog *analyze.Program) *Report {
	r := &Report{}
	if prog == nil {
		return r
	}
	if prog.Clique != nil {
		for _, v := range prog.Clique.Views {
			r.Views = append(r.Views, ViewVerdict{View: v.Name, Verdict: certifyPreM(r, prog.Clique, v)})
		}
		lintTermination(r, prog.Clique)
		lintCoPartition(r, prog.Clique)
		lintGroupBy(r, prog.Clique)
		lintCartesianRules(r, prog.Clique)
		lintConfluence(r, prog.Clique)
	}
	lintUnused(r, prog)
	if prog.Final != nil {
		lintCartesianQuery(r, prog.Final, "")
	}
	return r
}

// ruleLabel names a rule for diagnostics: recursive rules and base rules
// are numbered separately, matching their order in the view.
func ruleLabel(v *analyze.RecView, rule *analyze.Rule) string {
	for i, rr := range v.RecRules {
		if rr == rule {
			return fmt.Sprintf("recursive rule %d", i+1)
		}
	}
	for i, br := range v.BaseRules {
		if br == rule {
			return fmt.Sprintf("base rule %d", i+1)
		}
	}
	return ""
}

// lintGroupBy checks the implicit group-by shape of every aggregate view
// (RV040, RV041).
func lintGroupBy(r *Report, clique *analyze.Clique) {
	for _, v := range clique.Views {
		if !v.IsAgg() {
			continue
		}
		if len(v.GroupIdx) == 0 {
			r.add(Diagnostic{
				Code: "RV040", Severity: SeverityWarning, View: v.Name,
				Message: fmt.Sprintf("implicit group-by is empty: every derivation folds into a single global %s() group", v.Agg),
				Hint:    "add a non-aggregate head column to group by, or confirm a global aggregate is intended",
			})
		}
		allRules := append(append([]*analyze.Rule{}, v.BaseRules...), v.RecRules...)
		for _, gi := range v.GroupIdx {
			val, degenerate := "", len(allRules) > 0
			for _, rule := range allRules {
				lit, ok := rule.Head[gi].(*expr.Lit)
				if !ok {
					degenerate = false
					break
				}
				if val == "" {
					val = lit.V.String()
				} else if val != lit.V.String() {
					degenerate = false
					break
				}
			}
			if degenerate {
				r.add(Diagnostic{
					Code: "RV041", Severity: SeverityInfo, View: v.Name,
					Message: fmt.Sprintf("group column %q is the constant %s in every rule; the implicit group-by is degenerate there", v.Schema.Columns[gi].Name, val),
					Hint:    "drop the constant column or bind it to a source column if per-key grouping was intended",
				})
			}
		}
	}
}

// lintCartesianRules flags rule bodies whose FROM sources are not all
// connected by join predicates (RV030).
func lintCartesianRules(r *Report, clique *analyze.Clique) {
	for _, v := range clique.Views {
		for _, rule := range append(append([]*analyze.Rule{}, v.BaseRules...), v.RecRules...) {
			if rule.NoFrom {
				continue
			}
			flagCartesian(r, v.Name, ruleLabel(v, rule), rule.Sources, rule.Conjuncts)
		}
	}
}

// lintCartesianQuery is lintCartesianRules for the final query (and its
// unions).
func lintCartesianQuery(r *Report, q *analyze.Query, view string) {
	if q == nil || q.NoFrom {
		return
	}
	flagCartesian(r, view, "", q.Sources, q.Conjuncts)
	for _, u := range q.Unions {
		lintCartesianQuery(r, u, view)
	}
}

// flagCartesian reports FROM sources not reachable from the first source
// through predicates that mention at least two sources.
func flagCartesian(r *Report, view, rule string, sources []analyze.Source, conjuncts []expr.Expr) {
	n := len(sources)
	if n < 2 {
		return
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, c := range conjuncts {
		prev := -1
		for in := range expr.Inputs(c) {
			if prev >= 0 {
				union(prev, in)
			}
			prev = in
		}
	}
	root := find(0)
	var loose []string
	for i := 1; i < n; i++ {
		if find(i) != root {
			loose = append(loose, sources[i].Binding)
		}
	}
	if len(loose) > 0 {
		r.add(Diagnostic{
			Code: "RV030", Severity: SeverityWarning, View: view, Rule: rule,
			Message: fmt.Sprintf("source(s) %s join the rest of the FROM list with no predicate: the body is a cartesian product", strings.Join(loose, ", ")),
			Hint:    "add a join condition, or confirm the cross product is intended",
		})
	}
}

// lintConfluence flags min/max views whose recursive rules derive a group
// key from an in-flight aggregate column (RV050). The aggregate column of a
// recursive source holds a provisional value that tightens as the fixpoint
// runs; a group-by key computed from it places the same logical derivation
// into different groups depending on the derivation schedule — delta
// batching, partition count, even map iteration order over the merge
// buckets — so the fixpoint is not confluent and two runs can return
// different (both "converged") answers. Reading the aggregate in the
// aggregate position is the PreM-certified pattern; reading it in a group
// position is the hazard.
func lintConfluence(r *Report, clique *analyze.Clique) {
	for _, v := range clique.Views {
		if v.Agg != types.AggMin && v.Agg != types.AggMax {
			continue
		}
		for _, rule := range v.RecRules {
			for _, gi := range v.GroupIdx {
				col := inFlightAggRead(rule, rule.Head[gi])
				if col == nil {
					continue
				}
				src := rule.Sources[col.Input].Rec
				r.add(Diagnostic{
					Code: "RV050", Severity: SeverityWarning, View: v.Name, Rule: ruleLabel(v, rule),
					Message: fmt.Sprintf("group column %q is computed from %s.%s, the in-flight %s() aggregate of a recursive source: the group key depends on the derivation schedule, so the fixpoint is not confluent and results can vary run to run",
						v.Schema.Columns[gi].Name, src.Name, src.Schema.Columns[src.AggIdx].Name, src.Agg),
					Hint: "group by stable key columns only; read the converged aggregate in the final query, after the fixpoint",
				})
			}
		}
	}
}

// inFlightAggRead returns a column reference inside e that reads the
// aggregate column of a recursive source of the rule, or nil.
func inFlightAggRead(rule *analyze.Rule, e expr.Expr) *expr.Col {
	var found *expr.Col
	expr.Walk(e, func(x expr.Expr) bool {
		c, ok := x.(*expr.Col)
		if !ok || found != nil {
			return true
		}
		if c.Input < 0 || c.Input >= len(rule.Sources) {
			return true
		}
		s := rule.Sources[c.Input]
		if s.Kind == analyze.SourceRec && s.Rec != nil && s.Rec.IsAgg() && c.Idx == s.Rec.AggIdx {
			found = c
		}
		return true
	})
	return found
}

// lintUnused reports CTEs and recursive views whose results are never read
// (RV031).
func lintUnused(r *Report, prog *analyze.Program) {
	if prog.Clique == nil {
		return
	}
	used := map[string]bool{}
	var markQuery func(q *analyze.Query)
	markSources := func(sources []analyze.Source) {
		for _, s := range sources {
			switch s.Kind {
			case analyze.SourceView:
				used[strings.ToLower(s.ViewName)] = true
				markQuery(s.ViewQuery)
			case analyze.SourceRec:
				used[strings.ToLower(s.Rec.Name)] = true
			}
		}
	}
	markQuery = func(q *analyze.Query) {
		if q == nil {
			return
		}
		markSources(q.Sources)
		for _, u := range q.Unions {
			markQuery(u)
		}
	}
	markQuery(prog.Final)
	// Cross-view references inside rules count; self-references do not.
	for _, v := range prog.Clique.Views {
		for _, rule := range append(append([]*analyze.Rule{}, v.BaseRules...), v.RecRules...) {
			for _, s := range rule.Sources {
				switch s.Kind {
				case analyze.SourceView:
					used[strings.ToLower(s.ViewName)] = true
					markQuery(s.ViewQuery)
				case analyze.SourceRec:
					if !strings.EqualFold(s.Rec.Name, v.Name) {
						used[strings.ToLower(s.Rec.Name)] = true
					}
				}
			}
		}
	}
	for _, vd := range prog.Clique.NonRec {
		if !used[strings.ToLower(vd.Name)] {
			r.add(Diagnostic{
				Code: "RV031", Severity: SeverityWarning, View: vd.Name,
				Message: "CTE is defined but never read",
				Hint:    "remove the definition, or reference it from the query",
			})
		}
	}
	for _, v := range prog.Clique.Views {
		if !used[strings.ToLower(v.Name)] {
			r.add(Diagnostic{
				Code: "RV031", Severity: SeverityWarning, View: v.Name,
				Message: "recursive view is computed to fixpoint but its result is never read",
				Hint:    "drop the view or read it from the final query; the fixpoint runs regardless",
			})
		}
	}
}
