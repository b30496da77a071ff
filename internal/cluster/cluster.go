// Package cluster simulates a Spark-like shared-nothing cluster inside one
// process: hash-partitioned relations owned by workers, stages of tasks
// placed by a pluggable scheduling policy, shuffle exchanges, broadcasts and
// mutable cached state (State, the paper's SetRDD).
//
// The simulation makes the costs the RaSQL paper optimizes measurable
// rather than merely counted: whenever rows cross a worker boundary they are
// really serialized and deserialized through the shuffle wire format (where
// Spark pays network + serialization cost), cached partitions are owned by a
// specific worker so locality-oblivious placement forces remote fetches, and
// each task's launch cost (plus any per-byte communication penalty) is
// charged to the simulated clock (SimNanos), costing the host nothing.
// Optimizations such as partition-aware scheduling, stage combination and
// broadcast compression therefore change simulated time for the same
// structural reasons they do on a real cluster.
//
// A Cluster holds only immutable configuration and lifetime counter totals,
// so any number of queries may share it concurrently. All mutable execution
// state — stage sequencing, task queues, tracer, chaos injector, per-query
// counters — lives on the QueryContext one query obtains from NewQuery (see
// query.go).
package cluster

import (
	"runtime"
	"sync/atomic"

	"github.com/rasql/rasql-go/internal/obs"
)

// Policy chooses which worker runs each task of a stage.
type Policy int

const (
	// PolicyPartitionAware schedules a task onto the worker that owns its
	// cached partition (the paper's Section 6.1 scheduler extension).
	PolicyPartitionAware Policy = iota
	// PolicyHybrid models Spark's default locality-oblivious placement
	// for iterative jobs: tasks are handed to whichever executor frees up,
	// so across iterations a partition's task usually lands on a different
	// worker than the one caching its input, forcing remote fetches.
	PolicyHybrid
)

// String names the policy.
func (p Policy) String() string {
	if p == PolicyPartitionAware {
		return "partition-aware"
	}
	return "hybrid"
}

// Config parameterizes a simulated cluster.
type Config struct {
	// Workers is the number of simulated worker nodes. Defaults to
	// GOMAXPROCS.
	Workers int
	// Partitions is the number of data partitions. Defaults to Workers.
	Partitions int
	// Policy is the task placement policy. Defaults to PolicyPartitionAware.
	Policy Policy
	// CompressBroadcast enables varint-compressed raw-relation broadcast
	// with per-worker hash-table builds (the paper's Section 7.2
	// optimization). When false, the master builds the hash table and
	// ships the hashed relation, which is 2-3x larger.
	CompressBroadcast bool
	// TaskOverheadNanos is the modelled per-task launch cost (scheduler
	// RPC, task deserialization, setup): each task, and each relaxed
	// processing step, adds it to its worker's busy time on the simulated
	// clock, and the host spends no time on it. Defaults to 37000 (37µs).
	TaskOverheadNanos int64
	// ImmutableState forces State to copy a partition's entire contents
	// on every union instead of mutating in place — the behaviour of
	// vanilla immutable RDDs, kept for ablation benchmarks.
	ImmutableState bool
	// ShufflePenaltyNanosPerByte charges the fetching worker this much
	// simulated time per byte it reads across a worker boundary, modelling
	// a communication layer that degrades with volume (the Myria comparator
	// profile, which the paper describes as fast on small inputs but poorly
	// scaling on large ones). Zero, the default, charges nothing.
	ShufflePenaltyNanosPerByte int64
	// SequentialStages runs each stage's worker queues one after another on
	// the driver goroutine instead of the default of one goroutine per
	// worker. Both modes record simulated elapsed time (SimNanos) as the
	// maximum per-worker busy time of each stage — what a real cluster's
	// stage barrier waits for — so scaling experiments stay meaningful
	// either way; sequential mode exists for debugging and for deterministic
	// single-threaded profiling.
	SequentialStages bool
	// Chaos configures the deterministic fault injector (see chaos.go). The
	// zero value disables it entirely; a disabled injector costs one nil
	// check per stage/fetch and zero allocations.
	Chaos ChaosConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		// Simulated workers, not OS threads: default to a small cluster
		// even on single-core machines, where the worker goroutines share
		// the host's cores.
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 4 {
			c.Workers = 4
		}
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Workers
	}
	if c.TaskOverheadNanos <= 0 {
		c.TaskOverheadNanos = 37_000
	}
	return c
}

// Cluster is a simulated cluster: immutable configuration plus lifetime
// counter totals. It is safe for concurrent use by any number of queries —
// all per-query mutable state (stage sequencing, tracer, chaos injector,
// task-queue scratch) lives on the QueryContext returned by NewQuery.
type Cluster struct {
	cfg Config
	// Metrics accumulates lifetime totals across every query run on this
	// cluster. Queries count into their own per-query Metrics and fold the
	// result in here when their QueryContext finishes; the counters are
	// atomic, so concurrent folds and snapshots need no lock.
	Metrics Metrics
	// queryID issues engine-wide query sequence numbers (1-based); the ID
	// stamps the query's trace events, its QueryStats record and its
	// query-log line.
	queryID atomic.Uint64
	// observer, when non-nil, receives the lifecycle of every query: a
	// QueryStarted at NewQuery and one QueryStats fold at Finish. Set once
	// at engine construction, before any query runs.
	observer obs.QueryObserver
}

// New creates a cluster from the config (zero values get defaults).
func New(cfg Config) *Cluster {
	return &Cluster{cfg: cfg.withDefaults()}
}

// SetObserver attaches the per-query stats observer (the engine's metrics
// recorder). Call before running queries: the field is read un-locked by
// every NewQuery/Finish.
func (c *Cluster) SetObserver(o obs.QueryObserver) { c.observer = o }

// Config returns the effective (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Task is one unit of stage work bound to a partition.
type Task struct {
	// Part is the partition index this task processes.
	Part int
	// Preferred is the worker that owns this task's cached input, or -1.
	Preferred int
	// Run executes the task body on the assigned worker.
	Run func(worker int)
	// Rollback, when set, undoes any cached-state mutation a failed attempt
	// left behind so Run can be replayed. Only consulted under an enabled
	// fault injector; runs on the same goroutine as the failed attempt.
	Rollback func()
}

// DefaultOwner returns the canonical owner worker for a partition.
func (c *Cluster) DefaultOwner(part int) int { return part % c.cfg.Workers }
