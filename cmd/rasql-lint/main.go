// Command rasql-lint checks the engine-source invariants that keep query
// results reproducible and the allocation-free data plane honest:
// deterministic clocks (simclock), non-retention of decode buffers
// (noretain) and allocation-free hot paths (noalloc). See the
// internal/analysis package documentation for the invariants and the
// //rasql: annotation language.
//
// Two modes:
//
//	rasql-lint ./...                          # standalone, whole-program
//	go vet -vettool=$(which rasql-lint) ./... # unitchecker under cmd/go
//
// Standalone findings print human-readable by default; -json emits a
// machine-readable array of {file,line,col,analyzer,code,message}.
//
// Standalone mode loads and type-checks the matched module packages itself
// and sees every annotation at once. Under go vet, cmd/go drives one
// invocation per package and annotations cross package boundaries as facts
// files, so results are cached by the build system like any vet check.
//
// Exit status: 0 clean, 2 findings, 1 operational failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/rasql/rasql-go/internal/analysis"
	"github.com/rasql/rasql-go/internal/sql/vet"
)

// version is the tool identity reported to cmd/go's -V=full handshake.
// cmd/go requires the "<name> version <semver>" shape to build its
// cache key; "devel" would disable vet result caching.
const version = "v1.0.0"

func main() {
	// cmd/go probes the tool identity before first use.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		fmt.Printf("rasql-lint version %s\n", version)
		return
	}
	// go vet queries the tool's flags as JSON; the suite takes none, so
	// every analyzer always runs.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Under go vet the final argument is the per-package config file.
	if n := len(os.Args); n >= 2 && strings.HasSuffix(os.Args[n-1], ".cfg") {
		os.Exit(analysis.RunUnit(os.Args[n-1], os.Stderr))
	}

	list := flag.Bool("list", false, "list the analyzers and exit")
	codes := flag.Bool("codes", false, "list every registered diagnostic code (RL and RV series) and exit")
	allocdrift := flag.Bool("allocdrift", false, "cross-check //rasql:noalloc annotations against //rasql:allocpin test pins instead of running the analyzers")
	dir := flag.String("C", ".", "change to `dir` before loading packages")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rasql-lint [-C dir] [-json] [-allocdrift] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Checks rasql engine-source invariants. With no packages, checks ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %-6s %s\n", a.Name, a.Code, a.Doc)
		}
		return
	}
	if *codes {
		printCodes()
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var diags []analysis.Diagnostic
	if *allocdrift {
		var err error
		diags, err = analysis.AllocDrift(*dir, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rasql-lint: %v\n", err)
			os.Exit(1)
		}
	} else {
		pkgs, fset, err := analysis.LoadPackages(*dir, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rasql-lint: %v\n", err)
			os.Exit(1)
		}
		diags = analysis.Run(fset, pkgs, analysis.All())
	}
	var err error
	if *jsonOut {
		err = analysis.RenderJSON(os.Stdout, diags)
	} else {
		err = analysis.RenderHuman(os.Stderr, diags)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rasql-lint: %v\n", err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// printCodes lists every stable diagnostic code the toolchain can emit:
// the RL series (engine-source invariants, this tool) and the RV series
// (`rasql vet` query-plan lints), each with its owning check and doc line.
func printCodes() {
	fmt.Printf("%-6s %-16s %s\n", "RL000", "rasql-lint", "malformed //rasql:allow annotation, or an allow naming an unregistered analyzer (framework check, always on)")
	byCode := analysis.All()
	sort.Slice(byCode, func(i, j int) bool { return byCode[i].Code < byCode[j].Code })
	for _, a := range byCode {
		fmt.Printf("%-6s %-16s %s\n", a.Code, a.Name, a.Doc)
	}
	fmt.Printf("%-6s %-16s %s\n", "RL010", "allocdrift", "//rasql:noalloc annotation without an //rasql:allocpin bench pin, or a stale pin (run with -allocdrift)")
	for _, cd := range vet.Codes() {
		fmt.Printf("%-6s %-16s %s\n", cd.Code, "rasql vet", cd.Doc)
	}
}
