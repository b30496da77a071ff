package rasql

import (
	"io"

	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/vet"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/internal/types"
)

// The library's user-facing data model is defined in internal packages and
// re-exported here, so downstream code only ever imports
// github.com/rasql/rasql-go.

// Relation is an in-memory table: a named schema plus rows.
type Relation = relation.Relation

// Schema describes a relation's columns.
type Schema = types.Schema

// Column is one schema column.
type Column = types.Column

// Row is one tuple.
type Row = types.Row

// Value is one SQL value (int, double, string, boolean or NULL).
type Value = types.Value

// Kind is a value/column type tag.
type Kind = types.Kind

// The column kinds.
const (
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindBool   = types.KindBool
)

// ClusterConfig configures the simulated cluster (see Config.Cluster).
type ClusterConfig = cluster.Config

// FixpointOptions configures the fixpoint operator (see Config.Fixpoint).
type FixpointOptions = fixpoint.DistOptions

// FixpointResult is the evaluated fixpoint of a recursive clique, as
// returned by Engine.RunClique: per-view relations, the iteration count,
// and the evaluation mode that actually ran (with the fallback reason when
// a relaxed request was downgraded to BSP).
type FixpointResult = fixpoint.Result

// EvalMode selects the fixpoint synchronization discipline
// (Config.Fixpoint.Mode): bulk-synchronous barriers, SSP(k) bounded
// staleness, or fully asynchronous delta routing.
type EvalMode = fixpoint.EvalMode

// The evaluation modes.
const (
	ModeBSP   = fixpoint.ModeBSP
	ModeSSP   = fixpoint.ModeSSP
	ModeAsync = fixpoint.ModeAsync
)

// ParseEvalMode parses the -mode flag syntax: "bsp", "ssp", "ssp:k" or
// "async". It returns the mode and the SSP staleness bound.
func ParseEvalMode(s string) (EvalMode, int, error) { return fixpoint.ParseEvalMode(s) }

// ErrFixpointCancelled reports a fixpoint stopped at an iteration boundary
// because the query's context was cancelled or its deadline expired
// (ExecContext and friends). It unwraps to the context error, so
// errors.Is(err, context.DeadlineExceeded) works through it.
type ErrFixpointCancelled = fixpoint.ErrCancelled

// MetricsSnapshot is a copy of the cluster's execution counters.
type MetricsSnapshot = cluster.Snapshot

// QueryStats is one finished query's execution record: wall/simulated
// latency, iteration count, shuffle volume, fault-recovery and staleness
// counters, plus the fixpoint mode that actually ran. Every query folds one
// into the engine's recorder at Finish (see Engine.Observability).
type QueryStats = obs.QueryStats

// MetricsRecorder is the engine's observability hub: per-query stats fold
// into registry histograms, the last finished query's QueryStats is kept
// (Last), and an optional slog logger gets one structured line per finished
// query.
type MetricsRecorder = obs.Recorder

// MetricsRegistry is a registry of named counters, gauges and histograms
// with Prometheus text-format exposition (WritePrometheus).
type MetricsRegistry = obs.Registry

// Histogram is a fixed-bucket, allocation-free atomic latency histogram
// (log-spaced buckets, ≤12.5% relative error, wait-free Observe).
type Histogram = obs.Histogram

// ServeMetrics starts an HTTP listener exposing the registry in Prometheus
// text format at every path. It returns the bound address (useful with
// ":0") and never blocks; the listener lives for the rest of the process.
func ServeMetrics(addr string, reg *MetricsRegistry) (string, error) {
	return obs.ListenAndServe(addr, reg)
}

// Tracer records structured execution traces: driver-phase, stage and task
// spans plus per-iteration fixpoint telemetry. Attach one with
// Engine.SetTracer; a nil tracer disables tracing at near-zero cost.
type Tracer = trace.Tracer

// TraceEvent is one recorded span/counter/instant event.
type TraceEvent = trace.Event

// TraceIteration is one iteration's fixpoint telemetry.
type TraceIteration = trace.IterationEvent

// NewTracer creates a full tracer (spans and iteration telemetry).
func NewTracer() *Tracer { return trace.New() }

// NewIterationsTracer creates a tracer that records only per-iteration
// fixpoint telemetry — cheap enough to leave attached while benchmarking.
func NewIterationsTracer() *Tracer { return trace.NewIterationsOnly() }

// Scheduling policies for ClusterConfig.Policy.
const (
	PolicyPartitionAware = cluster.PolicyPartitionAware
	PolicyHybrid         = cluster.PolicyHybrid
)

// ChaosConfig configures the cluster's deterministic fault injector (see
// ClusterConfig.Chaos): seeded random faults at a per-task-attempt Rate
// plus exactly scripted ChaosEvents, recovered transparently by bounded
// task retry with per-partition checkpoint rollback. The zero value
// disables injection at zero cost.
type ChaosConfig = cluster.ChaosConfig

// ChaosEvent scripts one fault at an exact (stage, occurrence, partition,
// attempt) coordinate.
type ChaosEvent = cluster.ChaosEvent

// FaultKind selects what a chaos fault breaks.
type FaultKind = cluster.FaultKind

// The injectable fault kinds.
const (
	FaultTaskStart  = cluster.FaultTaskStart
	FaultWorkerLoss = cluster.FaultWorkerLoss
	FaultFetch      = cluster.FaultFetch
	FaultPostMerge  = cluster.FaultPostMerge
	FaultStraggler  = cluster.FaultStraggler
)

// VetReport is the result of Engine.Vet: structured diagnostics (stable
// RVxxx codes, severities, remediation hints) plus per-view PreM verdicts.
type VetReport = vet.Report

// VetDiagnostic is one static-analysis finding.
type VetDiagnostic = vet.Diagnostic

// VetVerdict is the outcome of static PreM certification.
type VetVerdict = vet.Verdict

// VetSeverity ranks a diagnostic.
type VetSeverity = vet.Severity

// The static PreM verdicts.
const (
	VetNotApplicable = vet.VerdictNotApplicable
	VetCertified     = vet.VerdictCertified
	VetRefuted       = vet.VerdictRefuted
	VetInconclusive  = vet.VerdictInconclusive
)

// The diagnostic severities.
const (
	VetError   = vet.SeverityError
	VetWarning = vet.SeverityWarning
	VetInfo    = vet.SeverityInfo
)

// Int builds an integer value.
func Int(i int64) Value { return types.Int(i) }

// Float builds a double value.
func Float(f float64) Value { return types.Float(f) }

// Str builds a string value.
func Str(s string) Value { return types.Str(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return types.Bool(b) }

// Null builds the NULL value.
func Null() Value { return types.Null() }

// Col builds a schema column.
func Col(name string, kind Kind) Column { return types.Col(name, kind) }

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return types.NewSchema(cols...) }

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema Schema) *Relation { return relation.New(name, schema) }

// ReadCSV loads a relation from CSV data with the given schema; a header
// row matching the column names is skipped automatically.
func ReadCSV(r io.Reader, name string, schema Schema, sep rune) (*Relation, error) {
	return relation.ReadCSV(r, name, schema, sep)
}

// ReadCSVFile loads a relation from a CSV file.
func ReadCSVFile(path, name string, schema Schema, sep rune) (*Relation, error) {
	return relation.ReadCSVFile(path, name, schema, sep)
}

// WriteCSV writes a relation as CSV with a header row.
func WriteCSV(w io.Writer, rel *Relation, sep rune) error {
	return relation.WriteCSV(w, rel, sep)
}
