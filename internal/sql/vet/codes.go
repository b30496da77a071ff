package vet

// CodeDoc pairs one stable diagnostic code with a one-line description —
// the registry `rasql vet -h` prints after its flags, so every code vet
// can emit is discoverable from one place.
type CodeDoc struct {
	Code string
	Doc  string
}

// Codes lists every RV-series code the vet passes can emit, in code order.
// Keep in sync with the Diagnostic{Code: ...} literals in this package
// (pinned by TestCodesRegistryComplete).
func Codes() []CodeDoc {
	return []CodeDoc{
		{"RV001", "PreM certified: the aggregate provably pushes inside the fixpoint (info)"},
		{"RV002", "PreM refuted: a rule matches a counter-pattern; eager aggregation would change results"},
		{"RV003", "PreM inconclusive: no known monotone pattern applies, the engine post-aggregates"},
		{"RV010", "count/sum recursion over a potentially cyclic source may diverge"},
		{"RV020", "recursive join keys do not cover the partition key: the delta reshuffles every iteration"},
		{"RV021", "partition key narrowed so every recursive rule joins co-partitioned (info)"},
		{"RV030", "rule body sources not connected by join predicates: cartesian product"},
		{"RV031", "CTE or recursive view is defined but its result is never read"},
		{"RV040", "implicit group-by is empty: every derivation folds into one global aggregate group"},
		{"RV041", "group column is the same constant in every rule: degenerate group-by (info)"},
		{"RV050", "group key computed from an in-flight aggregate: the fixpoint is not confluent"},
	}
}
