package main

import (
	"time"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

// kernelSink keeps the compiler from dropping a kernel whose result is
// otherwise unused.
var kernelSink int

// medianNS runs f, which times its own measured part, traceReps times.
func medianNS(f func() time.Duration) float64 {
	v := make([]float64, traceReps)
	for i := range v {
		v[i] = float64(f())
	}
	return median(v)
}

// kernels times the data-plane building blocks of internal/cluster and
// internal/types over a workload's own rows: base is its table, result the
// fixpoint it computes (or the table again when it has none), csvPath the
// file rasqld loads the table from. Values are nanoseconds per row, except
// cluster.runstage_empty_us.
func kernels(base, result *relation.Relation, csvPath string) (map[string]float64, error) {
	out := map[string]float64{}
	clu := cluster.New(cluster.Config{}) // sized as rasqld's: both leave it to the package's defaults
	key := []int{0}
	perRow := func(name string, rows int, f func() time.Duration) {
		out[name] = medianNS(f) / float64(rows)
	}

	// The fixed price of a stage: one task per partition that does nothing.
	out["cluster.runstage_empty_us"] = medianNS(func() time.Duration {
		q := clu.NewQuery(nil)
		tasks := make([]cluster.Task, q.Partitions())
		for i := range tasks {
			tasks[i] = cluster.Task{Part: i, Preferred: q.DefaultOwner(i), Run: func(int) {}}
		}
		start := time.Now()
		q.RunStage("empty", tasks)
		d := time.Since(start)
		q.Finish()
		return d
	}) / 1e3

	var parts *cluster.PartitionedRelation
	perRow("cluster.partition_ns_per_row", base.Len(), func() time.Duration {
		start := time.Now()
		parts = clu.Partition(base, key)
		return time.Since(start)
	})
	perRow("cluster.collect_ns_per_row", base.Len(), func() time.Duration {
		q := clu.NewQuery(nil)
		start := time.Now()
		kernelSink += q.Collect(parts, "collected").Len()
		d := time.Since(start)
		q.Finish()
		return d
	})

	var table *cluster.RowTable
	perRow("cluster.rowtable_build_ns_per_row", base.Len(), func() time.Duration {
		start := time.Now()
		table = cluster.BuildRowTable(base.Rows, key)
		return time.Since(start)
	})
	perRow("cluster.rowtable_probe_ns_per_row", result.Len(), func() time.Duration {
		start := time.Now()
		for _, r := range result.Rows {
			kernelSink += len(table.ProbeRow(r, key))
		}
		return time.Since(start)
	})

	// pair is perRow for two parts that one repetition measures together.
	pair := func(first, second string, rows int, f func() (a, b time.Duration)) {
		va, vb := make([]float64, traceReps), make([]float64, traceReps)
		for i := range va {
			a, b := f()
			va[i], vb[i] = float64(a), float64(b)
		}
		out[first], out[second] = median(va)/float64(rows), median(vb)/float64(rows)
	}

	// The shuffle's map-side write and reduce-side read, from inside tasks,
	// where the engine calls them.
	pair("cluster.shuffle_add_ns_per_row", "cluster.shuffle_fetch_ns_per_row", base.Len(), func() (add, fetch time.Duration) {
		q := clu.NewQuery(nil)
		sh := q.NewShuffle(len(parts.Parts))
		q.RunStage("shuffle-add", []cluster.Task{{Part: 0, Preferred: 0, Run: func(worker int) {
			start := time.Now()
			sh.Add(parts.Parts, worker)
			add = time.Since(start)
		}}})
		q.RunStage("shuffle-fetch", []cluster.Task{{Part: 0, Preferred: 0, Run: func(worker int) {
			start := time.Now()
			for t := range parts.Parts {
				kernelSink += len(sh.FetchTarget(t, worker))
			}
			fetch = time.Since(start)
		}}})
		q.Finish()
		return add, fetch
	})

	// Merging rows into the recursive view's state: into an empty state
	// (every row is new) and then the same rows again (none is).
	pair("cluster.aggrdd_merge_new_ns_per_row", "cluster.aggrdd_merge_dup_ns_per_row", result.Len(), func() (fresh, dup time.Duration) {
		state := clu.NewAggRDDN(result.Schema, key, 1, types.AggMin, 1)
		start := time.Now()
		kernelSink += len(state.Merge(0, result.Rows).Rows)
		mid := time.Now()
		kernelSink += len(state.Merge(0, result.Rows).Rows)
		return mid.Sub(start), time.Since(mid)
	})
	pair("cluster.setrdd_merge_new_ns_per_row", "cluster.setrdd_merge_dup_ns_per_row", result.Len(), func() (fresh, dup time.Duration) {
		state := clu.NewSetRDDN(result.Schema, 1)
		start := time.Now()
		kernelSink += len(state.Merge(0, result.Rows))
		mid := time.Now()
		kernelSink += len(state.Merge(0, result.Rows))
		return mid.Sub(start), time.Since(mid)
	})

	// The wire format and the row-key hash the shuffle and the merges use.
	var wire []byte
	perRow("types.encode_ns_per_row", base.Len(), func() time.Duration {
		start := time.Now()
		wire = types.AppendRows(wire[:0], base.Rows)
		return time.Since(start)
	})
	var decoded []types.Row
	var err error
	perRow("types.decode_ns_per_row", base.Len(), func() time.Duration {
		start := time.Now()
		decoded, err = types.DecodeRowsAppend(decoded[:0], wire)
		return time.Since(start)
	})
	if err != nil {
		return nil, err
	}
	var keyBuf []byte
	perRow("types.key_hash_ns_per_row", base.Len(), func() time.Duration {
		start := time.Now()
		for _, r := range base.Rows {
			keyBuf = types.AppendKey(keyBuf[:0], r, key)
			kernelSink += int(types.HashBytes(keyBuf) & 1)
		}
		return time.Since(start)
	})

	perRow("relation.csv_load_ns_per_row", base.Len(), func() time.Duration {
		start := time.Now()
		var rel *relation.Relation
		if rel, err = relation.ReadCSVFile(csvPath, base.Name, base.Schema, ','); err == nil {
			kernelSink += rel.Len()
		}
		return time.Since(start)
	})
	return out, err
}
