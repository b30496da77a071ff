package analysis_test

import (
	"testing"

	"github.com/rasql/rasql-go/internal/analysis"
	"github.com/rasql/rasql-go/internal/analysis/analysistest"
)

// Each fixture package under testdata/src seeds known violations of one
// invariant (plus the idiomatic clean shapes) and pins the exact
// diagnostics with // want comments.

func TestSimclockFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "simclock", analysis.Simclock)
}

func TestNoRetainFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "noretain", analysis.NoRetain)
}

func TestNoAllocFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "noalloc", analysis.NoAlloc)
}

// The vet-driver twin re-runs the call-graph fixture through the
// unitchecker plumbing (vet.cfg parse, facts write, full-suite run), so the
// two driver modes are pinned to agree on every diagnostic variant.

func TestNoAllocFixtureVet(t *testing.T) {
	analysistest.RunVet(t, "testdata", "noalloc")
}

// TestAllowFixture runs no analyzer at all: malformed //rasql:allow
// comments, and allows naming an unregistered analyzer, are diagnosed by
// the framework itself.
func TestAllowFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "allow")
}

// TestEngineClean pins the tentpole acceptance criterion in-process: the
// full analyzer suite reports nothing on the engine packages the linter
// was built to guard.
func TestEngineClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-program load is not short")
	}
	pkgs, fset, err := analysis.LoadPackages("../..", ".", "./internal/cluster/...", "./internal/types/...", "./internal/fixpoint/...", "./internal/trace/...", "./internal/sql/...", "./internal/pregel/...", "./internal/gap/...", "./internal/server/...", "./cmd/rasqld/...")
	if err != nil {
		t.Fatalf("loading engine packages: %v", err)
	}
	for _, d := range analysis.Run(fset, pkgs, analysis.All()) {
		t.Errorf("engine package diagnostic: %s", d)
	}
}
