package cluster

import (
	"testing"

	"github.com/rasql/rasql-go/internal/types"
)

// The data-plane micro-benchmarks. Run with
//
//	go test -bench=. -benchmem ./internal/cluster/
//
// The interesting column is allocs/op: steady-state SetRDD dedup and AggRDD
// merge should sit at (near) zero — every probe hashes and compares the
// row's values in place in the partition's group table (types.Combiner)
// instead of building a key.

func benchSchema() types.Schema {
	return types.NewSchema(
		types.Col("A", types.KindInt),
		types.Col("B", types.KindInt),
		types.Col("W", types.KindFloat),
		types.Col("L", types.KindString), // string column defeats packed-key fast paths
	)
}

func benchClusterRows(n int) []types.Row {
	labels := []string{"red", "green", "blue"}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.Int(int64(i)),
			types.Int(int64(i % 37)),
			types.Float(float64(i) * 0.25),
			types.Str(labels[i%len(labels)]),
		}
	}
	return rows
}

func BenchmarkSetRDDInsert(b *testing.B) {
	c := newTestCluster(1, 1)
	rows := benchClusterRows(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := c.NewSetRDDN(benchSchema(), 1)
		if got := s.Merge(0, rows); len(got) != len(rows) {
			b.Fatalf("fresh merge kept %d of %d rows", len(got), len(rows))
		}
	}
}

func BenchmarkSetRDDDedup(b *testing.B) {
	c := newTestCluster(1, 1)
	rows := benchClusterRows(4096)
	s := c.NewSetRDDN(benchSchema(), 1)
	s.Merge(0, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Merge(0, rows); len(got) != 0 {
			b.Fatalf("dedup let %d duplicates through", len(got))
		}
	}
}

func BenchmarkAggRDDMerge(b *testing.B) {
	c := newTestCluster(1, 1)
	// Contributions: many rows folding into few groups keyed on (B, L).
	rows := benchClusterRows(4096)
	a := c.NewAggRDDN(benchSchema(), []int{1, 3}, 2, types.AggMin, 1)
	a.Merge(0, benchClusterRows(4096)) // pre-seed so iterations hit existing groups
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(0, rows) // same candidates: no improvement, pure probe cost
	}
}

func BenchmarkShuffleRoundTrip(b *testing.B) {
	c := newTestQuery(4, 4)
	rows := benchClusterRows(4096)
	targets := 4
	out := make([][]types.Row, targets)
	for i, r := range rows {
		t := i % targets
		out[t] = append(out[t], r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := c.NewShuffle(targets)
		for w := 0; w < 4; w++ {
			sh.Add(out, w)
		}
		n := 0
		for t := 0; t < targets; t++ {
			n += len(sh.FetchTarget(t, t%4))
		}
		if n != 4*len(rows) {
			b.Fatalf("round trip moved %d rows, want %d", n, 4*len(rows))
		}
	}
}

// BenchmarkDisabledInjector times the chaos hooks when chaos is off: the
// whole stage path (placement, dispatch, fetch-point and post-merge nil
// checks) stays at 0 allocs/op, so a production run pays nothing for the
// fault-injection machinery being compiled in (TestDisabledInjectorZeroAllocs
// asserts it).
func BenchmarkDisabledInjector(b *testing.B) {
	c := New(Config{Workers: 4, Partitions: 4, SequentialStages: true}).NewQuery(nil)
	tasks := make([]Task, 4)
	for i := range tasks {
		tasks[i] = Task{Part: i, Preferred: i, Run: func(w int) { c.ChaosPostMerge(w) }}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunStage("noop", tasks)
	}
}

// TestSetRDDDedupZeroAllocs pins the group table's probe path: re-merging
// rows a SetRDD already holds hashes each, finds it, and touches no
// allocator.
func TestSetRDDDedupZeroAllocs(t *testing.T) {
	c := newTestCluster(1, 1)
	rows := benchClusterRows(1024)
	s := c.NewSetRDDN(benchSchema(), 1)
	s.Merge(0, rows)
	allocs := testing.AllocsPerRun(20, func() {
		if got := s.Merge(0, rows); len(got) != 0 {
			t.Fatalf("dedup let %d duplicates through", len(got))
		}
	})
	if allocs != 0 {
		t.Errorf("SetRDD dedup allocates %.1f per merge, want 0", allocs)
	}
}

// TestAggRDDMergeZeroAllocs pins the grouped-key probe: contributions that
// improve no group fold into existing entries without allocating.
func TestAggRDDMergeZeroAllocs(t *testing.T) {
	c := newTestCluster(1, 1)
	rows := benchClusterRows(1024)
	a := c.NewAggRDDN(benchSchema(), []int{1, 3}, 2, types.AggMin, 1)
	a.Merge(0, benchClusterRows(1024))
	allocs := testing.AllocsPerRun(20, func() {
		a.Merge(0, rows)
	})
	if allocs != 0 {
		t.Errorf("AggRDD merge of non-improving rows allocates %.1f per merge, want 0", allocs)
	}
}

// TestAggDeltaReuseZeroAllocs pins the aggregate delta's buffer: on a warm
// partition where every contribution changes its group — a sum takes every
// nonzero increment, a min every lower candidate — Merge derives the delta's
// rows, increments and first-derivation flags into the buffer the previous
// merge grew, and allocates nothing.
func TestAggDeltaReuseZeroAllocs(t *testing.T) {
	for _, kind := range []types.AggKind{types.AggSum, types.AggMin} {
		c := newTestCluster(1, 1)
		rows := benchClusterRows(1024)
		a := c.NewState([]int{0}, 2, kind)
		next := 0.0
		merge := func() {
			next--
			for _, r := range rows {
				r[2] = types.Float(next)
			}
			if d := a.Merge(0, rows); len(d.Rows) != len(rows) {
				t.Fatalf("%s: %d of %d contributions changed their group", kind, len(d.Rows), len(rows))
			}
		}
		merge() // open the groups and grow the delta buffer
		if allocs := testing.AllocsPerRun(20, merge); allocs != 0 {
			t.Errorf("%s: a merge that changes every group allocates %.1f, want 0", kind, allocs)
		}
	}
}

// TestShuffleAddZeroAllocs pins the map-side shuffle write on warm send
// memory: every producer's Add encodes into its shard's bytes and appends to
// bucket lists within the capacity the previous round grew, and resetting
// the generation keeps that memory for the next round.
func TestShuffleAddZeroAllocs(t *testing.T) {
	const workers, targets = 4, 4
	c := newTestQuery(workers, targets)
	out := make([][]types.Row, targets)
	for i, r := range benchClusterRows(64) {
		out[i%targets] = append(out[i%targets], r)
	}
	sh := c.NewShuffle(targets)
	run := func() {
		for w := 0; w < workers; w++ {
			sh.Add(out, w)
		}
		sh.gen.reset(workers+1, targets)
		sh.epoch = sh.gen.epoch
	}
	run() // grow the shards' bytes and bucket lists
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Shuffle.Add on warm send memory allocates %.1f per round, want 0", allocs)
	}
}

// BenchmarkRowTableProbe probes a table with each of its build rows. The
// first case keys 4,096 rows on two columns (111 keys); the second is the
// shape buildCopart builds: one partition of four, the rows whose key
// hashes to it, each under its own int key — keys whose hashes share their
// low bits, which partition routing consumed.
func BenchmarkRowTableProbe(b *testing.B) {
	wide := benchClusterRows(4096)
	var copart []types.Row
	for _, r := range benchClusterRows(16384) {
		if types.HashRowKey(r, []int{0})%4 == 0 {
			copart = append(copart, r)
		}
	}
	for _, bc := range []struct {
		name string
		rows []types.Row
		cols []int
	}{
		{"two-column", wide, []int{1, 3}},
		{"copart", copart, []int{0}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			t := BuildRowTable(bc.rows, bc.cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits := 0
				for _, r := range bc.rows {
					hits += len(t.ProbeRow(r, bc.cols))
				}
				if hits == 0 {
					b.Fatal("no probe hits")
				}
			}
		})
	}
}
