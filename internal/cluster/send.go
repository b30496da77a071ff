package cluster

import "github.com/rasql/rasql-go/internal/types"

// SendMemory is the memory rows are encoded into on their way across a
// worker boundary: the map-side shuffle write and the serialize half of a
// transfer, and the per-worker task queues a stage is placed into. It keeps
// what it grew, so a query reusing it encodes into warm buffers and queues
// its tasks without allocating, whatever the collector did in between. A
// QueryContext uses its own unless an execution lends it another
// (LendSendMemory): the fixpoint lends its plan's, so warm executions buy
// no wire memory and no queues. The zero value is ready to use.
type SendMemory struct {
	// gens are the shuffle generations. The combined mode reads step k−1's
	// shuffle while it writes step k's, so NewShuffle takes the older one.
	gens  [2]shuffleGen
	older int
	// scratch[w+1] is worker w's transfer encode buffer, scratch[0] the
	// driver's; a worker runs one task at a time, so each has one writer.
	scratch [][]byte
	// queues[w] is worker w's part of the running stage; the stage barrier
	// guarantees no queue outlives its RunStage call.
	queues []workerQueue
}

// shuffleGen is one shuffle's memory. epoch counts the shuffles that took
// it: a Shuffle stamped with an older epoch has lost its bytes.
type shuffleGen struct {
	epoch  uint64
	shards []shuffleShard
}

// shuffleShard is one producer's part of a shuffle (index 0 the driver,
// w+1 worker w): the append-only encoding of every bucket it wrote, and
// per target the buckets ranging over it.
type shuffleShard struct {
	bytes   []byte
	buckets [][]encBucket
}

// encBucket is one encoded bucket of n rows: bytes[off:end] of its shard.
type encBucket struct {
	off, end, n int
}

// takeShuffle empties the older generation for a shuffle of producers
// shards by targets buckets, keeping its memory, and hands it out.
func (m *SendMemory) takeShuffle(producers, targets int) *shuffleGen {
	g := &m.gens[m.older]
	m.older ^= 1
	g.reset(producers, targets)
	return g
}

func (g *shuffleGen) reset(producers, targets int) {
	g.epoch++
	if len(g.shards) != producers {
		g.shards = make([]shuffleShard, producers)
	}
	for i := range g.shards {
		sh := &g.shards[i]
		sh.bytes = sh.bytes[:0]
		if cap(sh.buckets) < targets {
			sh.buckets = make([][]encBucket, targets)
		}
		sh.buckets = sh.buckets[:targets]
		for t := range sh.buckets {
			sh.buckets[t] = sh.buckets[t][:0]
		}
	}
}

// fit sizes the transfer scratch and the task queues for the given worker
// count. RunStage and RunRelaxed call it before any task runs, so a task's
// call only reads.
func (m *SendMemory) fit(workers int) {
	if len(m.scratch) != workers+1 {
		m.scratch = make([][]byte, workers+1)
	}
	if len(m.queues) != workers {
		m.queues = make([]workerQueue, workers)
	}
}

// encode writes rows into the transfer scratch of worker (−1: the driver)
// and returns the bytes, valid until that worker's next encode.
func (m *SendMemory) encode(worker int, rows []types.Row) []byte {
	b := types.AppendRows(m.scratch[worker+1][:0], rows)
	m.scratch[worker+1] = b
	return b
}
