// Command premcheck validates the PreM property for aggregate-in-recursion
// queries. With -static it first runs the vet analyzer's syntactic
// certification — which needs no data and terminates on every input — and
// only falls back to the paper's Appendix G dynamic GPtest (running the
// original query and its PreM-checking rewrite iteration by iteration)
// when the static verdict is inconclusive. It can also print the rewritten
// query.
//
// Usage:
//
//	premcheck -table 'edge=edges.csv:Src int,Dst int,Cost double' \
//	          -f apsp.sql [-static] [-iter 200] [-rewrite]
//
// Built-in queries can be checked by name:
//
//	premcheck -table ... -name sssp -static
//
// Exit codes make the checker scriptable: 0 the aggregate is certified /
// the property holds, 1 it is refuted / violated, 2 the analysis is
// inconclusive, 3 usage or execution error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cli"
	"github.com/rasql/rasql-go/internal/prem"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/queries"
)

// The premcheck exit codes.
const (
	ExitHolds        = 0
	ExitViolated     = 1
	ExitInconclusive = 2
	ExitFatal        = 3
)

var builtins = map[string]string{
	"sssp":     queries.SSSP,
	"apsp":     queries.APSP,
	"cc":       queries.CCLabels,
	"delivery": queries.Delivery,
	"coalesce": queries.Coalesce,
}

func main() {
	var (
		tables  cli.MultiFlag
		query   = flag.String("q", "", "query text")
		file    = flag.String("f", "", "query file")
		name    = flag.String("name", "", "built-in query name: "+keys())
		iters   = flag.Int("iter", 200, "iteration budget for the step checker")
		static  = flag.Bool("static", false, "certify statically first; run the dynamic GPtest only when inconclusive")
		rewrite = flag.Bool("rewrite", false, "print the PreM-checking rewrite (Appendix G) and exit")
	)
	flag.Var(&tables, "table", "name=path:schema (repeatable)")
	flag.Parse()

	src := *query
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(b)
	case *name != "":
		q, ok := builtins[strings.ToLower(*name)]
		if !ok {
			fatal(fmt.Errorf("unknown built-in %q (have: %s)", *name, keys()))
		}
		src = q
	}
	if strings.TrimSpace(src) == "" {
		fatal(fmt.Errorf("no query given (-q, -f or -name)"))
	}

	if *rewrite {
		out, err := prem.RewriteCheckingQuery(src)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		return
	}

	eng := rasql.New(rasql.Config{})
	if err := cli.LoadTables(eng, tables); err != nil {
		fatal(err)
	}

	staticInconclusive := false
	if *static {
		rep, err := eng.Vet(src)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep)
		switch rep.Verdict() {
		case rasql.VetCertified:
			fmt.Println("static: certified — skipping dynamic GPtest")
			os.Exit(ExitHolds)
		case rasql.VetRefuted:
			fmt.Println("static: refuted — the aggregate is not pre-mappable")
			os.Exit(ExitViolated)
		case rasql.VetNotApplicable:
			fmt.Println("static: no aggregate in recursion — nothing to check")
			os.Exit(ExitHolds)
		default:
			staticInconclusive = true
			fmt.Println("static: inconclusive — falling back to the dynamic GPtest")
		}
	}

	// The dynamic check runs the program Exec and Vet would: views replace
	// into a copy of the catalog, and the statement is optimized.
	prog, err := eng.Compile(src)
	if err != nil {
		fatal(err)
	}
	rep, err := prem.Check(prog, exec.NewContext(), *iters)
	if err != nil {
		if staticInconclusive {
			// The static pass already declined and the dynamic checker
			// cannot decide either (e.g. count/sum heads have no
			// min/max to GPtest): the overall answer is inconclusive.
			fmt.Println("dynamic:", err)
			os.Exit(ExitInconclusive)
		}
		fatal(err)
	}
	fmt.Println(rep)
	switch {
	case !rep.Holds:
		os.Exit(ExitViolated)
	case !rep.Converged:
		// The budget ran out with no violation found: evidence, not proof.
		os.Exit(ExitInconclusive)
	}
}

func keys() string {
	out := make([]string, 0, len(builtins))
	for k := range builtins {
		out = append(out, k)
	}
	return strings.Join(out, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "premcheck:", err)
	os.Exit(ExitFatal)
}
