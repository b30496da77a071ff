// Package bench regenerates every table and figure of the paper's
// evaluation (Section 8 and the appendices) on the simulated cluster.
// Dataset sizes scale down from the paper's 16-node/120-core testbed by a
// configurable divisor; EXPERIMENTS.md records how the measured shapes
// compare with the published ones.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
)

// Config parameterizes a benchmark run.
type Config struct {
	// Scale divides the paper's RMAT vertex counts (default 1000:
	// RMAT-16M becomes RMAT-16K).
	Scale int
	// TreeScale divides the paper's tree node counts (default 256).
	TreeScale int
	// Workers/Partitions size the simulated cluster (default 8,
	// approximating the paper's cluster shape). The worker goroutines run
	// concurrently and share the host's cores, so each stage's simulated
	// time is its slowest worker's wall time under that contention.
	Workers, Partitions int
	// Seed makes dataset generation reproducible.
	Seed int64
	// Repeat averages each measurement over this many runs (default 1;
	// the paper averages 5).
	Repeat int
	// Quick shrinks sizes further for smoke tests and testing.B runs.
	Quick bool
	// Chaos injects deterministic faults into every cluster-backed
	// measurement (the recovery-overhead experiment of DESIGN.md §9). The
	// zero value measures fault-free runs.
	Chaos rasql.ChaosConfig
	// Progress, when non-nil, receives progress lines.
	Progress io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1000
	}
	if c.TreeScale <= 0 {
		c.TreeScale = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Repeat <= 0 {
		c.Repeat = 1
	}
	if c.Workers <= 0 {
		// Eight simulated workers approximate the paper's cluster shape.
		// On a host with fewer cores they contend for them, which inflates
		// each stage's slowest-worker time (see Workers).
		c.Workers = 8
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Workers
	}
	if c.Quick {
		c.Scale *= 8
		c.TreeScale *= 8
	}
	return c
}

// Runner executes experiments.
type Runner struct {
	cfg   Config
	data  datasetCache
	trees map[string]*gen.Tree
	// totals accumulates the metrics of every cluster-backed measurement
	// since the last TakeTotals, feeding the machine-readable bench output.
	totals cluster.Snapshot
	// curves accumulates per-iteration convergence profiles since the last
	// TakeCurves; curveSeen disambiguates repeated labels within a batch.
	curves    []Curve
	curveSeen map[string]int
	// curvePrefix labels the curves of the measurement in flight (the
	// system or baseline name); empty outside runSystem/runBaseline.
	curvePrefix string
}

// NewRunner creates a runner.
func NewRunner(cfg Config) *Runner { return &Runner{cfg: cfg.withDefaults()} }

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Progress != nil {
		fmt.Fprintf(r.cfg.Progress, format+"\n", args...)
	}
}

// Table is one regenerated figure or table.
type Table struct {
	// ID matches the paper ("Figure 5", "Table 3", ...).
	ID    string
	Title string
	// Columns and Rows hold the rendered cells; column 0 is the row label.
	Columns []string
	Rows    [][]string
	// Notes list scaling substitutions and caveats.
	Notes []string
}

// String renders the table as aligned ASCII.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note: %s*\n", n)
	}
	return b.String()
}

// fmtDur renders a duration compactly (µs/ms/s).
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// timeIt measures fn's wall time averaged over cfg.Repeat runs.
func (r *Runner) timeIt(fn func() error) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < r.cfg.Repeat; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(r.cfg.Repeat), nil
}

// timeSim measures a cluster-backed run averaged over cfg.Repeat runs,
// returning the simulated elapsed time: wall time with the in-stage wall
// replaced by the simulated clock (max per-worker time per stage), so that
// worker counts matter even on few-core hosts. fn must return the metrics
// snapshot of the cluster it used.
func (r *Runner) timeSim(fn func() (cluster.Snapshot, error)) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < r.cfg.Repeat; i++ {
		start := time.Now()
		m, err := fn()
		if err != nil {
			return 0, err
		}
		wall := time.Since(start)
		total += wall - time.Duration(m.StageWallNanos) + time.Duration(m.SimNanos)
		r.totals = r.totals.Add(m)
	}
	return total / time.Duration(r.cfg.Repeat), nil
}

// TakeTotals returns the metrics accumulated across all cluster-backed
// measurements since the previous call, and resets the accumulator. The
// bench CLI calls it once per experiment to attribute counters.
func (r *Runner) TakeTotals() cluster.Snapshot {
	t := r.totals
	r.totals = cluster.Snapshot{}
	return t
}

// Record is one experiment's machine-readable result, emitted by the bench
// CLI into BENCH_fixpoint.json so the perf trajectory is comparable across
// changes.
type Record struct {
	Experiment     string `json:"experiment"`
	WallNanos      int64  `json:"wall_nanos"`
	SimNanos       int64  `json:"sim_nanos"`
	ShuffleBytes   int64  `json:"shuffle_bytes"`
	ShuffleRecords int64  `json:"shuffle_records"`
	Allocs         uint64 `json:"allocs"`
	// Recovery counters: zero on fault-free runs, nonzero when the run was
	// benchmarked under -chaos (the recovery-overhead experiment).
	TaskRetries         int64 `json:"task_retries"`
	RowsReplayed        int64 `json:"rows_replayed"`
	RecoveredIterations int64 `json:"recovered_iterations"`
	// Staleness counters: zero under BSP, nonzero when a relaxed-* run
	// consumed deltas past the barrier point, discarded rows an earlier
	// merge had already improved on, or (for BSP arms of the comparison)
	// idled at the stage barrier.
	StaleReads       int64   `json:"stale_reads"`
	SupersededRows   int64   `json:"superseded_rows"`
	BarrierWaitNanos int64   `json:"barrier_wait_nanos"`
	Curves           []Curve `json:"curves,omitempty"`
}

// CurvePoint is one fixpoint iteration of a convergence curve.
type CurvePoint struct {
	Iter         int   `json:"iter"`
	DeltaRows    int   `json:"deltaRows"`
	AllRows      int   `json:"allRows"`
	ShuffleBytes int64 `json:"shuffleBytes"`
}

// Curve is the per-iteration convergence profile of one traced query run
// (the last repeat when Repeat > 1): how fast the delta shrinks and how
// much shuffle each iteration costs. Mode names the evaluation strategy the
// fixpoint engine actually picked (dsn-combined, dsn-two-stage, sql-naive,
// local, ...).
type Curve struct {
	Label  string       `json:"label"`
	Mode   string       `json:"mode"`
	Points []CurvePoint `json:"points"`
}

// TakeCurves returns the convergence curves recorded since the previous
// call and resets the accumulator, mirroring TakeTotals.
func (r *Runner) TakeCurves() []Curve {
	c := r.curves
	r.curves, r.curveSeen = nil, nil
	return c
}

// recordCurve files one traced run's iteration telemetry under label,
// suffixing repeated labels (#2, #3, ...) so every run in a batch stays
// addressable.
func (r *Runner) recordCurve(label string, iters []rasql.TraceIteration) {
	if len(iters) == 0 {
		return
	}
	if r.curveSeen == nil {
		r.curveSeen = make(map[string]int)
	}
	r.curveSeen[label]++
	if n := r.curveSeen[label]; n > 1 {
		label = fmt.Sprintf("%s#%d", label, n)
	}
	c := Curve{Label: label, Mode: iters[0].Mode, Points: make([]CurvePoint, 0, len(iters))}
	for _, it := range iters {
		c.Points = append(c.Points, CurvePoint{
			Iter: it.Iter, DeltaRows: it.DeltaRows, AllRows: it.AllRows,
			ShuffleBytes: it.ShuffleBytes,
		})
	}
	r.curves = append(r.curves, c)
}

// curveLabel derives a curve label from the measurement context: system or
// baseline prefix, the recursive view's name, and the driving table.
func (r *Runner) curveLabel(query string, tables []*relation.Relation) string {
	label := recViewName(query)
	if len(tables) > 0 && tables[0].Name != "" {
		label += "@" + tables[0].Name + "-" + fmt.Sprint(tables[0].Len())
	}
	if r.curvePrefix != "" {
		label = r.curvePrefix + ":" + label
	}
	return label
}

// recViewName extracts the recursive view's name from a query text
// ("WITH recursive path (Dst, ...)" → "path") for curve labels.
func recViewName(query string) string {
	fields := strings.Fields(query)
	for i, f := range fields {
		if !strings.EqualFold(f, "recursive") || i+1 >= len(fields) {
			continue
		}
		name := fields[i+1]
		if j := strings.IndexAny(name, "(,"); j >= 0 {
			name = name[:j]
		}
		if name != "" {
			return strings.ToLower(name)
		}
	}
	return "query"
}

// engineConfig builds a rasql.Config for one of the compared system
// profiles. The mapping follows DESIGN.md's substitution table:
//
//	rasql      — all paper optimizations on (the default engine)
//	bigdatalog — SetRDD-era engine: two-stage DSN, no stage combination,
//	             no whole-stage fusion, uncompressed broadcast
//	myria      — low per-stage overhead, communication degrading with
//	             shuffle volume
//	sql-sn     — per-iteration SQL jobs with deltas (see fixpoint)
//	sql-naive  — per-iteration SQL jobs recomputing everything
func engineConfig(system string, workers, partitions int) rasql.Config {
	cl := rasql.ClusterConfig{Workers: workers, Partitions: partitions}
	switch system {
	case "rasql":
		return rasql.Config{Cluster: cl}
	case "bigdatalog":
		cfg := rasql.Config{RawOptimizations: true, Cluster: cl}
		cfg.Fixpoint.Volcano = true
		return cfg
	case "myria":
		cl.TaskOverheadNanos = 3_600
		cl.ShufflePenaltyNanosPerByte = 110
		cfg := rasql.Config{RawOptimizations: true, Cluster: cl}
		return cfg
	default:
		panic("bench: unknown system " + system)
	}
}

// runQuery times one query on a fresh engine with the given tables,
// in simulated time. Every run carries an iterations-only tracer — a
// handful of slice appends per fixpoint iteration, cheap enough to leave
// attached while timing — and the last repeat's profile is recorded as a
// convergence curve.
func (r *Runner) runQuery(cfg rasql.Config, query string, tables ...*relation.Relation) (time.Duration, error) {
	cfg.Cluster.Chaos = r.cfg.Chaos
	var iters []rasql.TraceIteration
	d, err := r.timeSim(func() (cluster.Snapshot, error) {
		eng := rasql.New(cfg)
		eng.SetTracer(rasql.NewIterationsTracer())
		for _, t := range tables {
			// Engines only scan registered relations; sharing them across
			// runs keeps the measurement on query execution.
			eng.MustRegister(t)
		}
		_, err := eng.Query(query)
		iters = eng.Tracer().Iterations()
		return eng.Metrics(), err
	})
	if err == nil {
		r.recordCurve(r.curveLabel(query, tables), iters)
	}
	return d, err
}

// runClique times just the fixpoint of a query (loading included, final
// projection excluded), used where the paper reports pure recursion time.
func (r *Runner) runCliqueOpts(cfg rasql.Config, opts func(*fixpoint.DistOptions), query string, tables ...*relation.Relation) (time.Duration, error) {
	if opts != nil {
		opts(&cfg.Fixpoint)
	}
	return r.runQuery(cfg, query, tables...)
}
