package server

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/rasql/rasql-go/internal/obs"
)

// errUnknownSession marks a request naming a session the server does not
// hold (closed, or never opened): the handlers answer it with 404.
var errUnknownSession = errors.New("unknown session")

// unknownSession wraps errUnknownSession with the session ID the request
// named.
func unknownSession(id string) error { return fmt.Errorf("%w %q", errUnknownSession, id) }

// Settings are the per-session execution knobs. The zero value inherits the
// engine configuration for everything. Requests may override per call; the
// session's values fill anything the request leaves unset.
type Settings struct {
	// Mode is the fixpoint evaluation mode in -mode syntax: "bsp", "ssp",
	// "ssp:k" or "async". Empty inherits the engine default.
	Mode string `json:"mode,omitempty"`
	// MaxIterations bounds the fixpoint loop (0 inherits).
	MaxIterations int `json:"max_iterations,omitempty"`
	// TimeoutMillis is the per-request deadline in milliseconds (0 inherits
	// the server default; negative disables the deadline entirely).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Trace selects the per-query trace level: "" or "off" (none),
	// "iterations" (fixpoint telemetry only) or "full" (spans too). Traced
	// queries report iteration counts in their stats; the trace itself stays
	// server-side.
	Trace string `json:"trace,omitempty"`
}

// merge overlays o (a request's overrides) on s: any field o sets wins.
func (s Settings) merge(o Settings) Settings {
	if o.Mode != "" {
		s.Mode = o.Mode
	}
	if o.MaxIterations != 0 {
		s.MaxIterations = o.MaxIterations
	}
	if o.TimeoutMillis != 0 {
		s.TimeoutMillis = o.TimeoutMillis
	}
	if o.Trace != "" {
		s.Trace = o.Trace
	}
	return s
}

func (s Settings) validate() error {
	switch s.Trace {
	case "", "off", "iterations", "full":
	default:
		return fmt.Errorf("unknown trace level %q (want off, iterations or full)", s.Trace)
	}
	return nil
}

// preparedStmt is one session-scoped prepared statement: the client-visible
// handle plus the normalized text the plan cache is keyed on. The compiled
// plan itself lives in the shared PlanCache so sessions preparing the same
// statement share one compilation, and DDL invalidation is centralized.
type preparedStmt struct {
	id   string
	src  string
	norm string
}

// session is one client session: settings plus prepared-statement handles.
type session struct {
	id string

	mu sync.Mutex
	// guarded by mu
	settings Settings
	// guarded by mu
	stmts map[string]*preparedStmt
	// guarded by mu
	nextStmt int
}

func (s *session) Settings() Settings {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settings
}

func (s *session) addStmt(src, norm string) *preparedStmt {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextStmt++
	st := &preparedStmt{id: s.id + "-" + strconv.Itoa(s.nextStmt), src: src, norm: norm}
	s.stmts[st.id] = st
	return st
}

func (s *session) stmt(id string) (*preparedStmt, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stmts[id]
	return st, ok
}

// sessionRegistry tracks live sessions and exposes the count as a gauge.
type sessionRegistry struct {
	mu sync.Mutex
	// guarded by mu
	byID map[string]*session
	// guarded by mu
	nextID uint64
	gauge  *obs.Gauge
}

func newSessionRegistry(reg *obs.Registry) *sessionRegistry {
	return &sessionRegistry{
		byID:  make(map[string]*session),
		gauge: reg.Gauge("rasql_server_sessions", "Live client sessions."),
	}
}

func (r *sessionRegistry) create(settings Settings) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	s := &session{
		id:       "s" + strconv.FormatUint(r.nextID, 10),
		settings: settings,
		stmts:    make(map[string]*preparedStmt),
	}
	r.byID[s.id] = s
	r.gauge.Set(int64(len(r.byID)))
	return s
}

func (r *sessionRegistry) get(id string) (*session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byID[id]
	return s, ok
}

func (r *sessionRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return false
	}
	delete(r.byID, id)
	r.gauge.Set(int64(len(r.byID)))
	return true
}
