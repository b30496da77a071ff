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
// map-side), into a generation of the query's send memory. A fetch only
// reads the bytes, so a target can be fetched again — a retried reduce task
// re-reads pristine buckets, as the map-side shuffle files survive a
// reduce-task failure on a real cluster — until NewShuffle takes the
// generation again, after which any use of the shuffle panics.
type Shuffle struct {
	c     *QueryContext
	gen   *shuffleGen
	epoch uint64
}

// NewShuffle creates a shuffle with the given number of target partitions,
// in the older of the send memory's two generations: the shuffle before the
// previous one is dead from here on.
func (c *QueryContext) NewShuffle(targets int) *Shuffle {
	g := c.send.takeShuffle(c.cfg.Workers+1, targets)
	return &Shuffle{c: c, gen: g, epoch: g.epoch}
}

// live panics when the shuffle's generation was taken by a newer shuffle,
// whose bytes a read would decode as this one's.
func (s *Shuffle) live() {
	if s.epoch != s.gen.epoch {
		panic("cluster: shuffle used after its send memory was taken by a newer shuffle")
	}
}

// Add registers one map task's output: out[t] holds the rows destined for
// target partition t, produced on the given worker (-1 for the driver).
// Rows are encoded into the producer's shard immediately — the map-side
// shuffle write — and the bytes are counted here, once per shuffled bucket.
// Safe for concurrent map tasks because each producer owns its shard
// exclusively: at most one goroutine at a time may Add for a given producer.
// Add is also the map-side hot loop: on warm send memory the encoding and
// the bucket appends fit the capacity earlier shuffles grew, so per-bucket
// work touches no allocator.
func (s *Shuffle) Add(out [][]types.Row, producer int) {
	s.live()
	sh := &s.gen.shards[producer+1]
	records, bytes := 0, 0
	for t, rows := range out {
		if len(rows) == 0 {
			continue
		}
		records += len(rows)
		off := len(sh.bytes)
		sh.bytes = types.AppendRows(sh.bytes, rows)
		bytes += len(sh.bytes) - off
		sh.buckets[t] = append(sh.buckets[t], encBucket{off: off, end: len(sh.bytes), n: len(rows)})
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
// additionally count as network traffic and charge onWorker the configured
// communication penalty on the simulated clock. Under chaos the fetch is a
// fault point, and rows a retrying task fetches again count as replayed
// work.
func (s *Shuffle) FetchTargetInto(out []types.Row, slab *types.RowSlab, t, onWorker int) []types.Row {
	s.live()
	s.c.chaos.fetchPoint(onWorker)
	shards := s.gen.shards
	total := 0
	for i := range shards {
		for _, b := range shards[i].buckets[t] {
			total += b.n
		}
	}
	if total == 0 {
		return out
	}
	if out == nil {
		out = make([]types.Row, 0, total)
	}
	for i := range shards {
		for _, b := range shards[i].buckets[t] {
			buf := shards[i].bytes[b.off:b.end]
			if i-1 == onWorker {
				s.c.Metrics.LocalFetchRows.Add(int64(b.n))
			} else {
				s.c.Metrics.RemoteFetchBytes.Add(int64(len(buf)))
				if p := s.c.cfg.ShufflePenaltyNanosPerByte; p > 0 {
					s.c.charge(onWorker, p*int64(len(buf)))
				}
			}
			var err error
			out, err = types.DecodeRowsInto(out, slab, buf)
			if err != nil {
				panic("cluster: shuffle wire corruption: " + err.Error())
			}
		}
	}
	s.c.chaos.replayRows(s.c.Metrics, onWorker, total)
	return out
}
