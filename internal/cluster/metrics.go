package cluster

import (
	"reflect"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics aggregates execution counters for one cluster. All counters are
// updated atomically by concurrently running tasks.
//
// The byte counters measure data that actually crossed a (simulated) worker
// boundary and therefore paid the serialize/deserialize cost, mirroring
// where a real Spark deployment pays network and serialization cost.
//
// Every field must be an atomic.Int64 with an identically named int64 field
// on Snapshot: the snapshot/fold/render plumbing walks the fields by
// reflection, so adding a counter here (plus its Snapshot mirror) is the
// whole change — it cannot be silently dropped from String, Add or Sub.
type Metrics struct {
	StagesRun        atomic.Int64
	TasksRun         atomic.Int64
	ShuffleRecords   atomic.Int64
	ShuffleBytes     atomic.Int64
	RemoteFetchBytes atomic.Int64
	LocalFetchRows   atomic.Int64
	BroadcastBytes   atomic.Int64
	Iterations       atomic.Int64
	// SimNanos accumulates simulated elapsed time: per stage, the
	// maximum per-worker busy time (measured time plus the modelled launch
	// and communication charges), in parallel and sequential mode alike.
	SimNanos atomic.Int64
	// StageWallNanos accumulates real wall time spent inside stages;
	// subtracting it from end-to-end wall time isolates driver-side work.
	StageWallNanos atomic.Int64
	// TaskRetries counts task attempts killed by the fault injector and
	// replayed; always zero with chaos disabled.
	TaskRetries atomic.Int64
	// RowsReplayed counts rows re-fetched (partition fetch or shuffle
	// target) by retry attempts — the wasted data-movement work recovery
	// paid on top of the fault-free run.
	RowsReplayed atomic.Int64
	// RecoveredIterations counts partition-level rollbacks: a failed
	// attempt's cached-state mutations undone via Checkpoint/Restore before
	// replay (the paper's Section 6.1 "replay the current iteration" path).
	RecoveredIterations atomic.Int64
	// StaleReads counts rows consumed from delta batches older than the
	// BSP-fresh stamp (producer round + 1 < consumer round) under barrier-
	// relaxed execution; always zero in BSP mode.
	StaleReads atomic.Int64
	// SupersededRows counts incoming rows a relaxed merge discarded because
	// a fresher derivation already covered them — the wasted work barrier
	// relaxation trades for the removed barrier.
	SupersededRows atomic.Int64
	// BarrierWaitNanos accumulates time workers spent blocked on
	// synchronization: per BSP stage, the sum over active workers of
	// (slowest busy − own busy); under relaxed execution, measured
	// staleness-gate stalls.
	BarrierWaitNanos atomic.Int64
	// BaseReuses counts fixpoint executions that reused the physical base
	// side (plan, seed, co-partitioned and broadcast tables) a compiled
	// plan published, instead of building their own.
	BaseReuses atomic.Int64
}

// stopwatch is the cluster's only sanctioned wall-clock access: timing
// instrumentation whose readings feed the metrics counters (SimNanos,
// StageWallNanos) and nothing else. Results, placement and iteration counts
// must never depend on a reading, which is why TestSourceRules bans
// host-clock reads everywhere else in the deterministic packages and
// allows only the two below.
type stopwatch struct{ t0 time.Time }

func startStopwatch() stopwatch {
	return stopwatch{t0: time.Now()}
}

func (s stopwatch) elapsedNanos() int64 {
	return int64(time.Since(s.t0))
}

// Snapshot is a plain-value copy of the metrics at one instant. Fields
// mirror Metrics one-for-one by name (enforced by the reflection plumbing
// and the roundtrip tests).
type Snapshot struct {
	StagesRun           int64
	TasksRun            int64
	ShuffleRecords      int64
	ShuffleBytes        int64
	RemoteFetchBytes    int64
	LocalFetchRows      int64
	BroadcastBytes      int64
	Iterations          int64
	SimNanos            int64
	StageWallNanos      int64
	TaskRetries         int64
	RowsReplayed        int64
	RecoveredIterations int64
	StaleReads          int64
	SupersededRows      int64
	BarrierWaitNanos    int64
	BaseReuses          int64
}

// counterNames caches the shared field names of Metrics and Snapshot, in
// declaration order, verified once at init so a field added to one struct
// but not the other fails fast instead of being silently dropped.
var counterNames = func() []string {
	mt := reflect.TypeOf(Metrics{})
	st := reflect.TypeOf(Snapshot{})
	if mt.NumField() != st.NumField() {
		panic("cluster: Metrics and Snapshot field counts diverge")
	}
	names := make([]string, mt.NumField())
	for i := range names {
		mf, sf := mt.Field(i), st.Field(i)
		if mf.Name != sf.Name {
			panic("cluster: Metrics/Snapshot field order diverges at " + mf.Name)
		}
		if mf.Type != reflect.TypeOf(atomic.Int64{}) || sf.Type.Kind() != reflect.Int64 {
			panic("cluster: counter " + mf.Name + " is not atomic.Int64/int64")
		}
		names[i] = mf.Name
	}
	return names
}()

// counter returns the i-th counter of m, by the shared field order.
func (m *Metrics) counter(i int) *atomic.Int64 {
	return reflect.ValueOf(m).Elem().Field(i).Addr().Interface().(*atomic.Int64)
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	sv := reflect.ValueOf(&s).Elem()
	for i := range counterNames {
		sv.Field(i).SetInt(m.counter(i).Load())
	}
	return s
}

// AddSnapshot folds a snapshot's counts into the metrics atomically —
// how a finished QueryContext folds its per-query counters into the
// cluster's lifetime totals.
func (m *Metrics) AddSnapshot(s Snapshot) {
	sv := reflect.ValueOf(s)
	for i := range counterNames {
		m.counter(i).Add(sv.Field(i).Int())
	}
}

// Add returns the counter-wise sum s + o (accumulating totals across runs).
func (s Snapshot) Add(o Snapshot) Snapshot { return s.combine(o, 1) }

// Sub returns the delta s - o, counter-wise.
func (s Snapshot) Sub(o Snapshot) Snapshot { return s.combine(o, -1) }

func (s Snapshot) combine(o Snapshot, sign int64) Snapshot {
	out := s
	ov := reflect.ValueOf(&out).Elem()
	rv := reflect.ValueOf(o)
	for i := range counterNames {
		f := ov.Field(i)
		f.SetInt(f.Int() + sign*rv.Field(i).Int())
	}
	return out
}

// String renders the snapshot as one line. It walks the same reflected
// field list as Add/Sub, so every counter — present and future — appears,
// labelled with the lower-camel field name.
func (s Snapshot) String() string {
	var b strings.Builder
	sv := reflect.ValueOf(s)
	for i, name := range counterNames {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.ToLower(name[:1]))
		b.WriteString(name[1:])
		b.WriteByte('=')
		b.WriteString(itoa64(sv.Field(i).Int()))
	}
	return b.String()
}

// itoa64 is strconv.FormatInt(n, 10) without the import.
func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [21]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
