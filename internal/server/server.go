// Package server implements rasqld's HTTP/JSON serving layer in front of a
// shared rasql.Engine: sessions with per-session execution settings,
// prepared statements backed by a compiled-plan cache keyed on normalized
// SQL text plus catalog DDL version, bounded-concurrency admission control
// with queue-depth telemetry, per-request deadlines that cancel a running
// fixpoint at an iteration boundary, and graceful drain.
//
// The package uses only net/http from the standard library. Its one
// goroutine, Drain's watcher, ends once the in-flight requests have drained
// (TestServerDrain checks the goroutine count).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"context"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/trace"
)

// Config parameterizes a Server. Zero values get serving defaults.
type Config struct {
	// MaxConcurrent bounds queries executing at once (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a slot beyond MaxConcurrent
	// (default 2×MaxConcurrent); anything past it is rejected with 429.
	QueueDepth int
	// DefaultTimeout is the per-request deadline when neither the session
	// nor the request sets one (0 = no deadline).
	DefaultTimeout time.Duration
	// PlanCacheSize bounds the compiled-plan LRU (default 256 plans).
	PlanCacheSize int
	// RetryAfterSeconds is the Retry-After hint on 429/503 (default 1).
	RetryAfterSeconds int
	// DefaultSettings seeds every new session's settings.
	DefaultSettings Settings
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
	if c.RetryAfterSeconds <= 0 {
		c.RetryAfterSeconds = 1
	}
	return c
}

// Server is the HTTP serving layer over one shared engine. Create at most
// one Server per engine: the server registers its metric families on the
// engine's obs registry, and duplicate registration panics by design.
type Server struct {
	eng      *rasql.Engine
	cfg      Config
	cache    *PlanCache
	sessions *sessionRegistry
	adm      *admission

	draining atomic.Bool
	inflight sync.WaitGroup
	// bodies is the free list of response bodies, one per query slot.
	bodies chan *body

	requests   *obs.Counter
	errorsCtr  *obs.Counter
	timeouts   *obs.Counter
	reqLatency *obs.Histogram
}

// New wires a server in front of eng, registering the rasql_server_* and
// rasql_plan_cache_* metric families on the engine's registry so one
// /metrics exposition covers engine and serving layers together.
func New(eng *rasql.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := eng.Observability().Registry()
	return &Server{
		eng:        eng,
		cfg:        cfg,
		cache:      NewPlanCache(cfg.PlanCacheSize, reg),
		sessions:   newSessionRegistry(reg),
		adm:        newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, reg),
		bodies:     make(chan *body, cfg.MaxConcurrent),
		requests:   reg.Counter("rasql_server_requests_total", "API requests received (excluding health/metrics)."),
		errorsCtr:  reg.Counter("rasql_server_errors_total", "API requests answered with a 4xx/5xx status."),
		timeouts:   reg.Counter("rasql_server_timeouts_total", "API requests that hit their deadline."),
		reqLatency: reg.Histogram("rasql_server_request_nanos", "End-to-end API request latency in nanoseconds."),
	}
}

// Cache returns the compiled-plan cache (exported for tests and the bench).
func (s *Server) Cache() *PlanCache { return s.cache }

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.track(s.serveCreateSession))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.track(s.serveDeleteSession))
	mux.HandleFunc("POST /v1/query", s.track(s.serveQuery))
	mux.HandleFunc("POST /v1/prepare", s.track(s.servePrepare))
	mux.HandleFunc("POST /v1/execute", s.track(s.serveExecute))
	mux.Handle("GET /metrics", obs.Handler(s.eng.Observability().Registry()))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
	return mux
}

// Drain stops admitting work and waits for in-flight requests to finish (or
// ctx to expire). After Drain, /readyz reports 503 and every API request is
// refused with 503 + Retry-After; /metrics and /healthz keep serving so the
// final exposition can be scraped.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	// The watcher dies as soon as the in-flight WaitGroup drains; Drain's
	// select consumes its signal or abandons it on ctx expiry.
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain aborted with requests in flight: %w", ctx.Err())
	}
}

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// track wraps an API handler with drain refusal, in-flight accounting and
// the request counter/latency/error metrics.
func (s *Server) track(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		s.requests.Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if s.draining.Load() {
			s.writeError(sw, http.StatusServiceUnavailable, errDraining)
		} else {
			start := time.Now()
			h(sw, r)
			s.reqLatency.Observe(time.Since(start).Nanoseconds())
		}
		if sw.code >= 400 {
			s.errorsCtr.Inc()
		}
		if sw.code == http.StatusRequestTimeout {
			s.timeouts.Inc()
		}
	}
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// --- sessions -------------------------------------------------------------

type sessionRequest struct {
	Settings Settings `json:"settings"`
}

type sessionResponse struct {
	SessionID      string   `json:"session_id"`
	Settings       Settings `json:"settings"`
	CatalogVersion uint64   `json:"catalog_version"`
	Catalog        []string `json:"catalog"`
}

func (s *Server) serveCreateSession(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if r.ContentLength != 0 {
		if err := decodeBody(r, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	set := s.cfg.DefaultSettings.merge(req.Settings)
	if err := validateSettings(set); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sess := s.sessions.create(set)
	writeJSON(w, http.StatusCreated, sessionResponse{
		SessionID:      sess.id,
		Settings:       set,
		CatalogVersion: s.eng.CatalogVersion(),
		Catalog:        s.eng.Catalog().Names(),
	})
}

func (s *Server) serveDeleteSession(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		s.writeError(w, http.StatusNotFound, unknownSession(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// validateSettings rejects settings the engine would only fault on later.
func validateSettings(set Settings) error {
	if set.Mode != "" {
		if _, _, err := rasql.ParseEvalMode(set.Mode); err != nil {
			return err
		}
	}
	return set.validate()
}

// resolveSettings merges session settings with per-request overrides.
func (s *Server) resolveSettings(sessionID string, overrides Settings) (Settings, error) {
	base := s.cfg.DefaultSettings
	if sessionID != "" {
		sess, ok := s.sessions.get(sessionID)
		if !ok {
			return Settings{}, unknownSession(sessionID)
		}
		base = sess.Settings()
	}
	set := base.merge(overrides)
	return set, validateSettings(set)
}

// requestContext applies the effective deadline: positive TimeoutMillis sets
// it, negative disables any deadline, zero inherits the server default.
func (s *Server) requestContext(parent context.Context, set Settings) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	switch {
	case set.TimeoutMillis > 0:
		timeout = time.Duration(set.TimeoutMillis) * time.Millisecond
	case set.TimeoutMillis < 0:
		timeout = 0
	}
	if timeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, timeout)
}

// --- query / prepare / execute -------------------------------------------

type queryRequest struct {
	SessionID string   `json:"session_id,omitempty"`
	SQL       string   `json:"sql"`
	Settings  Settings `json:"settings"`
}

// queryResponse is a statement's answer; writeQueryResponse writes it.
type queryResponse struct {
	rel    *relation.Relation // the schema; nil when the script has no query statement
	body   *body              // the rows
	cached bool
	stats  *obs.QueryStats
}

// maxKeptBody is the largest body, in bytes of buffer, that goes back to
// the free list; the collector takes back a larger one.
const maxKeptBody = 1 << 20

// getBody takes a body from the free list, or makes one when it is empty.
func (s *Server) getBody() *body {
	select {
	case b := <-s.bodies:
		return b
	default:
		return &body{}
	}
}

// putBody empties b and returns it to the free list, unless it is larger
// than maxKeptBody or the list is full.
func (s *Server) putBody(b *body) {
	if cap(b.head)+cap(b.rows) > maxKeptBody {
		return
	}
	b.reset()
	select {
	case s.bodies <- b:
	default:
	}
}

// respond writes a statement's answer, or its error with its status, and
// then gives the answer's body back.
func (s *Server) respond(w http.ResponseWriter, resp *queryResponse, status int, err error) {
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.writeQueryResponse(w, resp)
	s.putBody(resp.body)
}

type prepareRequest struct {
	SessionID string `json:"session_id"`
	SQL       string `json:"sql"`
}

type prepareResponse struct {
	StatementID    string `json:"statement_id"`
	NormalizedSQL  string `json:"normalized_sql"`
	CatalogVersion uint64 `json:"catalog_version"`
	Statements     int    `json:"statements"`
	Cached         bool   `json:"cached"`
}

type executeRequest struct {
	SessionID   string   `json:"session_id"`
	StatementID string   `json:"statement_id"`
	Settings    Settings `json:"settings"`
}

func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing sql"))
		return
	}
	set, err := s.resolveSettings(req.SessionID, req.Settings)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errUnknownSession) {
			status = http.StatusNotFound
		}
		s.writeError(w, status, err)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), set)
	defer cancel()
	release, aerr := s.adm.acquire(ctx)
	if aerr != nil {
		s.writeError(w, admissionStatus(aerr), aerr)
		return
	}
	defer release()
	resp, status, err := s.runSQL(ctx, req.SQL, set)
	s.respond(w, resp, status, err)
}

func (s *Server) servePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, ok := s.sessions.get(req.SessionID)
	if !ok {
		s.writeError(w, http.StatusNotFound, unknownSession(req.SessionID))
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing sql"))
		return
	}
	norm, err := NormalizeSQL(req.SQL)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Compile (or reuse) eagerly so the client learns about bad SQL at
	// prepare time, not first execute.
	prep, hit := s.cache.Get(norm, s.eng.CatalogVersion()), true
	if prep == nil {
		hit = false
		prep, err = s.eng.Prepare(req.SQL)
		if err != nil {
			s.writeError(w, prepareStatus(err), err)
			return
		}
		s.cache.Put(norm, prep)
	}
	st := sess.addStmt(req.SQL, norm)
	writeJSON(w, http.StatusOK, prepareResponse{
		StatementID:    st.id,
		NormalizedSQL:  norm,
		CatalogVersion: prep.CatalogVersion(),
		Statements:     prep.Statements(),
		Cached:         hit,
	})
}

func (s *Server) serveExecute(w http.ResponseWriter, r *http.Request) {
	var req executeRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, ok := s.sessions.get(req.SessionID)
	if !ok {
		s.writeError(w, http.StatusNotFound, unknownSession(req.SessionID))
		return
	}
	st, ok := sess.stmt(req.StatementID)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown statement %q", req.StatementID))
		return
	}
	set, err := s.resolveSettings(req.SessionID, req.Settings)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.requestContext(r.Context(), set)
	defer cancel()
	release, aerr := s.adm.acquire(ctx)
	if aerr != nil {
		s.writeError(w, admissionStatus(aerr), aerr)
		return
	}
	defer release()
	resp, status, err := s.execNormalized(ctx, st.src, st.norm, set)
	s.respond(w, resp, status, err)
}

// runSQL executes arbitrary SQL: cacheable scripts go through the plan
// cache; scripts containing DDL (CREATE VIEW) execute directly and
// invalidate the cache once the DDL commits.
func (s *Server) runSQL(ctx context.Context, src string, set Settings) (*queryResponse, int, error) {
	norm, err := NormalizeSQL(src)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return s.execNormalized(ctx, src, norm, set)
}

// execNormalized is the shared execution path for /v1/query and
// /v1/execute: plan-cache lookup keyed on (normalized text, catalog
// version), compile on miss, execute under ctx, retry once if a concurrent
// DDL commit made the compiled plan stale between lookup and execution.
// The last statement's rows go straight into the response's body; a stale
// plan is refused before any row.
func (s *Server) execNormalized(ctx context.Context, src, norm string, set Settings) (*queryResponse, int, error) {
	stats := &obs.QueryStats{}
	b := s.getBody()
	opts := &rasql.ExecOptions{Mode: set.Mode, MaxIterations: set.MaxIterations, Stats: stats, Rows: b}
	switch set.Trace {
	case "iterations":
		opts.Tracer = trace.NewIterationsOnly()
	case "full":
		opts.Tracer = trace.New()
	}

	var rel *relation.Relation
	var err error
	cached := false
	for attempt := 0; ; attempt++ {
		version := s.eng.CatalogVersion()
		prep := s.cache.Get(norm, version)
		hit := prep != nil
		if prep == nil {
			var perr error
			prep, perr = s.eng.Prepare(src)
			if errors.Is(perr, rasql.ErrNotPreparable) {
				// DDL script: execute uncached; a successful commit bumps the
				// catalog version, so sweep the cache to the new version.
				rel, err = s.eng.ExecOpt(ctx, src, opts)
				if err == nil {
					if v := s.eng.CatalogVersion(); v != version {
						s.cache.Invalidate(v)
					}
				}
				break
			}
			if perr != nil {
				s.putBody(b)
				return nil, prepareStatus(perr), perr
			}
			s.cache.Put(norm, prep)
		}
		rel, err = s.eng.ExecPrepared(ctx, prep, opts)
		if errors.Is(err, rasql.ErrPlanStale) && attempt < 2 {
			continue // DDL committed between lookup and execute; recompile
		}
		cached = hit
		break
	}
	if err != nil {
		s.putBody(b)
		return nil, execStatus(err), err
	}
	return &queryResponse{rel: rel, body: b, cached: cached, stats: stats}, http.StatusOK, nil
}

// admissionStatus maps admission errors to HTTP statuses: a full queue is
// 429 (back off and retry), expiry-while-queued and drain are 503.
func admissionStatus(err error) int {
	if errors.Is(err, errQueueFull) {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// prepareStatus classifies compile-stage errors: everything the parser or
// analyzer rejects is the client's SQL, 400.
func prepareStatus(error) int { return http.StatusBadRequest }

// execStatus classifies execution errors: an iteration-boundary cancellation
// (deadline or client disconnect) is 408; anything else is the engine's, 500.
func execStatus(err error) int {
	var cancelled *rasql.ErrFixpointCancelled
	if errors.As(err, &cancelled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) {
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}
