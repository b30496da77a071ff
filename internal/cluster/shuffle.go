package cluster

import (
	"github.com/rasql/rasql-go/internal/types"
)

// Shuffle collects map-side output buckets and materializes them on the
// reduce side. Buckets produced on the same worker that consumes them are
// handed over for free; buckets crossing workers pay the wire round trip —
// the same cost model as Spark's shuffle fetch.
//
// The shuffle is sharded by producer: each map task appends only to its own
// worker's shard, so Add needs no lock — the cluster runs one goroutine per
// worker, and the stage barrier publishes all shards to the reduce side.
// Rows are serialized once, at Add time (Spark likewise writes shuffle files
// map-side), into pooled buffers that FetchTargetInto recycles after decoding.
// Consequently each target may be fetched at most once, which matches the
// one-reduce-task-per-partition execution model.
type Shuffle struct {
	c       *QueryContext
	targets int
	// shards[producer+1] holds the buckets written by that producer
	// (index 0 is the driver, producer == -1).
	shards []shuffleShard
}

type shuffleShard struct {
	// buckets[target] lists the encoded buckets destined for that target.
	buckets [][]encBucket
}

type encBucket struct {
	buf      *[]byte // pooled wire encoding of the bucket's rows
	n        int     // row count
	producer int
}

// NewShuffle creates a shuffle with the given number of target partitions.
func (c *QueryContext) NewShuffle(targets int) *Shuffle {
	s := &Shuffle{c: c, targets: targets, shards: make([]shuffleShard, c.cfg.Workers+1)}
	for i := range s.shards {
		s.shards[i].buckets = make([][]encBucket, targets)
	}
	return s
}

// Add registers one map task's output: out[t] holds the rows destined for
// target partition t, produced on the given worker (-1 for the driver).
// Rows are encoded into pooled buffers immediately — the map-side shuffle
// write — and the bytes are counted here, once per shuffled bucket. Safe for
// concurrent map tasks because each producer owns its shard exclusively: at
// most one goroutine at a time may Add for a given producer.
// Add is also the map-side hot loop: encoding reuses pooled buffers and
// bucket appends amortize, so per-bucket work touches no allocator.
//
//rasql:noalloc
func (s *Shuffle) Add(out [][]types.Row, producer int) {
	sh := &s.shards[producer+1]
	records, bytes := 0, 0
	for t, rows := range out {
		if len(rows) == 0 {
			continue
		}
		records += len(rows)
		//rasql:allow pooldiscipline -- ownership transfers to encBucket; FetchTarget recycles the buffer after decoding
		bp := getEncBuf()
		*bp = types.AppendRows((*bp)[:0], rows)
		bytes += len(*bp)
		sh.buckets[t] = append(sh.buckets[t], encBucket{buf: bp, n: len(rows), producer: producer})
	}
	s.c.Metrics.ShuffleRecords.Add(int64(records))
	s.c.Metrics.ShuffleBytes.Add(int64(bytes))
}

// FetchTarget materializes all rows destined for target partition t on the
// given reduce worker, into storage the caller owns from then on.
func (s *Shuffle) FetchTarget(t, onWorker int) []types.Row {
	return s.FetchTargetInto(nil, nil, t, onWorker)
}

// FetchTargetInto is FetchTarget decoding into receive memory the caller
// reuses: the rows are appended to out and their values carved out of slab,
// so they live until the caller resets slab. A nil slab decodes each bucket
// into storage of its own. Every bucket pays the deserialize half of the
// round trip (the serialize half was paid at Add), and cross-worker buckets
// additionally count as network traffic (and incur the configured
// communication penalty). The bucket buffers are recycled, so each target
// may be fetched at most once — except under chaos, where the encoded
// buckets are retained so a retrying task re-fetches pristine rows (the
// map-side shuffle files survive a reduce-task failure on a real cluster
// too); the re-decoded rows then count as replayed work, and the fetch
// itself is a fault point.
func (s *Shuffle) FetchTargetInto(out []types.Row, slab *types.RowSlab, t, onWorker int) []types.Row {
	chaos := s.c.chaos
	if chaos != nil {
		chaos.fetchPoint(onWorker)
	}
	total := 0
	for i := range s.shards {
		for _, b := range s.shards[i].buckets[t] {
			total += b.n
		}
	}
	if total == 0 {
		return out
	}
	if out == nil {
		out = make([]types.Row, 0, total)
	}
	for i := range s.shards {
		for _, b := range s.shards[i].buckets[t] {
			buf := *b.buf
			if b.producer == onWorker {
				s.c.Metrics.LocalFetchRows.Add(int64(b.n))
			} else {
				s.c.Metrics.RemoteFetchBytes.Add(int64(len(buf)))
				if p := s.c.cfg.ShufflePenaltyOpsPerByte; p > 0 {
					burn(p * len(buf))
				}
			}
			var err error
			out, err = types.DecodeRowsInto(out, slab, buf)
			if err != nil {
				panic("cluster: shuffle wire corruption: " + err.Error())
			}
			if chaos == nil {
				putEncBuf(b.buf)
			}
		}
		if chaos == nil {
			s.shards[i].buckets[t] = nil
		}
	}
	if chaos != nil {
		chaos.replayRows(s.c.Metrics, onWorker, total)
	}
	return out
}

// TargetCount returns the number of target partitions.
func (s *Shuffle) TargetCount() int { return s.targets }

// Exchange repartitions input onto key columns: a map stage routes each row
// by hash of the key, and a reduce stage materializes the target partitions.
// The result's partition i is owned by the worker that ran reduce task i, so
// a following stage scheduled partition-aware reads it locally.
func (c *QueryContext) Exchange(name string, in *PartitionedRelation, key []int) *PartitionedRelation {
	targets := c.cfg.Partitions
	sh := c.NewShuffle(targets)

	mapTasks := make([]Task, in.NumPartitions())
	for i := range mapTasks {
		part := i
		mapTasks[i] = Task{
			Part:      part,
			Preferred: in.Owner[part],
			Run: func(w int) {
				rows := c.Fetch(in.Parts[part], in.Owner[part], w)
				out := make([][]types.Row, targets)
				for _, row := range rows {
					t := int(types.HashRowKey(row, key) % uint64(targets))
					out[t] = append(out[t], row)
				}
				sh.Add(out, w)
			},
		}
	}
	c.RunStage(name+".map", mapTasks)

	out := c.EmptyN(in.Schema, key, targets)
	redTasks := make([]Task, targets)
	for i := range redTasks {
		part := i
		redTasks[i] = Task{
			Part:      part,
			Preferred: -1,
			Run: func(w int) {
				out.Parts[part] = sh.FetchTarget(part, w)
				out.Owner[part] = w
			},
		}
	}
	c.RunStage(name+".reduce", redTasks)
	return out
}
