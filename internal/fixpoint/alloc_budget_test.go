package fixpoint

import (
	"runtime"
	"testing"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/queries"
)

// TestTCGridAllocBudget keeps the recursive step's memory owned by its
// partition: transitive closure of the 21x21 grid (40 iterations, 52,920
// pairs — the benchmark's tc-grid recursion) must fit a fixed allocation
// budget. A step that buys fresh buffers per call, or a state that adopts
// the buffers its rows arrived in, overshoots it several times over.
func TestTCGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the engine's")
	}
	const budget = 48 << 20
	cat := testCatalog(gen.Unweighted(gen.Grid(20, gen.Rng(1))))
	prog := analyzeQ(t, queries.TC, cat)
	run := func() int {
		res, err := Distributed(prog.Clique, exec.NewContext(), testCluster(), DistOptions{StageCombination: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Relations["tc"].Len()
	}
	run() // warm the shuffle buffer pool and lazy runtime state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := run()
	runtime.ReadMemStats(&after)
	if rows != 52920 {
		t.Fatalf("tc rows = %d, want 52920", rows)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("one TC query allocated %d KiB, budget %d KiB", got>>10, budget>>10)
	} else {
		t.Logf("one TC query allocated %d KiB (budget %d KiB)", got>>10, budget>>10)
	}
}
