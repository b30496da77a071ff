package obs

import (
	"log/slog"
	"sync"
)

// QueryStats is the per-query resource-attribution record a finished
// cluster.QueryContext folds into the recorder: the distributional raw
// material the engine-global counter snapshot cannot express. One is
// produced per query — success or failure — so latency percentiles, QPS and
// staleness/recovery aggregates describe everything the engine served.
type QueryStats struct {
	// ID is the engine-wide query sequence number (1-based); the same ID
	// stamps the query's trace events and its slog query-log line.
	ID uint64 `json:"id"`
	// WallNanos is the end-to-end latency of the query on the host clock.
	WallNanos int64 `json:"wall_nanos"`
	// SimNanos is the simulated in-stage time (max per-worker busy per
	// stage, summed).
	SimNanos int64 `json:"sim_nanos"`
	// Iterations is the fixpoint iteration count (0 for non-recursive
	// statements).
	Iterations int64 `json:"iterations"`
	// ShuffleBytes / ShuffleRecords attribute shuffle volume to the query.
	ShuffleBytes   int64 `json:"shuffle_bytes"`
	ShuffleRecords int64 `json:"shuffle_records"`
	// TaskRetries / RowsReplayed / RecoveredIterations attribute fault
	// recovery work (zero on fault-free runs).
	TaskRetries         int64 `json:"task_retries"`
	RowsReplayed        int64 `json:"rows_replayed"`
	RecoveredIterations int64 `json:"recovered_iterations"`
	// StaleReads / SupersededRows attribute barrier-relaxation costs
	// (zero under BSP).
	StaleReads     int64 `json:"stale_reads"`
	SupersededRows int64 `json:"superseded_rows"`
	// BarrierWaitNanos is time workers idled at stage barriers (or
	// staleness gates).
	BarrierWaitNanos int64 `json:"barrier_wait_nanos"`
	// Mode names the fixpoint evaluation mode that actually ran ("bsp",
	// "ssp(k)", "async", "local"; empty for non-recursive statements).
	Mode string `json:"mode,omitempty"`
	// FallbackReason explains a relaxed-mode downgrade to BSP, when one
	// happened.
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Err is the query's error text ("" on success).
	Err string `json:"err,omitempty"`
}

// QueryObserver receives the lifecycle of every query run on a cluster:
// QueryStarted from NewQuery, ObserveQuery from QueryContext.Finish, each on
// the query's own goroutine — implementations must be safe for concurrent
// use.
type QueryObserver interface {
	QueryStarted()
	ObserveQuery(QueryStats)
}

// Recorder is the engine's metrics hub: a Registry pre-populated with the
// serving instruments, the last finished query's QueryStats, and an optional
// structured query log. It implements QueryObserver; every finished query
// folds into the histograms, the counters and the last record in one call.
type Recorder struct {
	reg *Registry

	// Prepared instruments — held as pointers so the per-query fold never
	// takes the registry lock.
	queries   *Counter
	errors    *Counter
	latency   *Histogram
	simTime   *Histogram
	iters     *Histogram
	shuffleB  *Histogram
	retries   *Counter
	replayed  *Counter
	recovered *Counter
	stale     *Counter
	supersede *Counter
	inflight  *Gauge

	mu sync.Mutex
	// guarded by mu
	last QueryStats
	// guarded by mu
	hasLast bool
	// guarded by mu
	logger *slog.Logger
}

// NewRecorder creates a recorder with its own registry, pre-registering the
// rasql_* serving metrics.
func NewRecorder() *Recorder {
	reg := NewRegistry()
	return &Recorder{
		reg:       reg,
		queries:   reg.Counter("rasql_queries_total", "Queries finished (success or error)."),
		errors:    reg.Counter("rasql_query_errors_total", "Queries finished with an error."),
		latency:   reg.Histogram("rasql_query_latency_nanos", "End-to-end query latency in nanoseconds."),
		simTime:   reg.Histogram("rasql_query_sim_nanos", "Simulated in-stage time per query in nanoseconds."),
		iters:     reg.Histogram("rasql_query_iterations", "Fixpoint iterations per query."),
		shuffleB:  reg.Histogram("rasql_query_shuffle_bytes", "Shuffle bytes per query."),
		retries:   reg.Counter("rasql_task_retries_total", "Task attempts killed by faults and replayed."),
		replayed:  reg.Counter("rasql_rows_replayed_total", "Rows re-fetched by retry attempts."),
		recovered: reg.Counter("rasql_recovered_iterations_total", "Partition-level checkpoint rollbacks."),
		stale:     reg.Counter("rasql_stale_reads_total", "Rows consumed past the BSP-fresh stamp."),
		supersede: reg.Counter("rasql_superseded_rows_total", "Rows discarded because a fresher derivation covered them."),
		inflight:  reg.Gauge("rasql_queries_inflight", "Queries currently executing."),
	}
}

// Registry returns the recorder's metric registry (for exposition).
func (r *Recorder) Registry() *Registry { return r.reg }

// SetLogger attaches a structured query log: every finished query emits one
// record carrying its ID, latency and resource attribution. A nil logger
// (the default) disables logging.
func (r *Recorder) SetLogger(l *slog.Logger) {
	r.mu.Lock()
	r.logger = l
	r.mu.Unlock()
}

// QueryStarted marks a query in flight (folded back out by ObserveQuery).
func (r *Recorder) QueryStarted() { r.inflight.Add(1) }

// ObserveQuery folds one finished query into the registry instruments and
// the last record, and emits the query-log record when a logger is
// attached. Safe for concurrent use.
func (r *Recorder) ObserveQuery(s QueryStats) {
	r.inflight.Add(-1)
	r.queries.Inc()
	if s.Err != "" {
		r.errors.Inc()
	}
	r.latency.Observe(s.WallNanos)
	r.simTime.Observe(s.SimNanos)
	r.iters.Observe(s.Iterations)
	r.shuffleB.Observe(s.ShuffleBytes)
	r.retries.Add(s.TaskRetries)
	r.replayed.Add(s.RowsReplayed)
	r.recovered.Add(s.RecoveredIterations)
	r.stale.Add(s.StaleReads)
	r.supersede.Add(s.SupersededRows)

	r.mu.Lock()
	r.last, r.hasLast = s, true
	logger := r.logger
	r.mu.Unlock()

	if logger != nil {
		logger.Info("query finished",
			slog.Uint64("qid", s.ID),
			slog.Int64("wall_nanos", s.WallNanos),
			slog.Int64("sim_nanos", s.SimNanos),
			slog.Int64("iterations", s.Iterations),
			slog.Int64("shuffle_bytes", s.ShuffleBytes),
			slog.Int64("task_retries", s.TaskRetries),
			slog.Int64("stale_reads", s.StaleReads),
			slog.String("mode", s.Mode),
			slog.String("fallback", s.FallbackReason),
			slog.String("err", s.Err),
		)
	}
}

// Last returns the most recently recorded QueryStats and whether one exists.
func (r *Recorder) Last() (QueryStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last, r.hasLast
}
