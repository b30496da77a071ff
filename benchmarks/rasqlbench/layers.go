package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/fixpoint"
	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/server"
	"github.com/rasql/rasql-go/internal/sql/analyze"
	"github.com/rasql/rasql-go/internal/sql/ast"
	"github.com/rasql/rasql-go/internal/sql/exec"
	"github.com/rasql/rasql-go/internal/sql/optimize"
	"github.com/rasql/rasql-go/internal/sql/parser"
)

// The traced pass. The engine has no spans of its own at the layer
// boundaries yet, so the benchmark times the calls into each layer's public
// functions from here: the request over loopback, the handler under it, and
// then, one by one, the calls the handler makes. A span's parent is the call
// that makes it in production; a layer's self time is its median minus the
// medians of its children.

// span is one timed call. The spans of one repetition share an id.
type span struct {
	ID       int    `json:"id"`
	Parent   string `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Class    string `json:"class"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	RowsIn   int    `json:"rows_in"`
	RowsOut  int    `json:"rows_out"`
}

// spanParents is the call tree in production.
var spanParents = map[string]string{
	"request":               "",
	"server.handler":        "request",
	"server.normalize":      "server.handler",
	"server.plan_cache_get": "server.handler",
	"server.plan_cache_put": "server.handler",
	"engine.prepare":        "server.handler",
	"sql.parse":             "engine.prepare",
	"sql.analyze":           "engine.prepare",
	"sql.optimize":          "engine.prepare",
	"engine.exec_prepared":  "server.handler",
	"fixpoint.distributed":  "engine.exec_prepared",
	"fixpoint.plan":         "fixpoint.distributed",
	"sql.exec_final":        "engine.exec_prepared",
}

// traceReps is how often each call is timed; the median is reported.
const traceReps = 40

// recorder keeps spans in memory until the pass ends, and the duration of
// every span by name for the medians.
type recorder struct {
	epoch    time.Time
	workload string
	class    string
	id       int
	spans    []span
	ns       map[string][]float64
}

// timed runs f as the named span of the current repetition.
func (r *recorder) timed(name string, rowsIn int, f func() (rowsOut int)) {
	start := time.Now()
	rowsOut := f()
	r.add(name, start, time.Now(), rowsIn, rowsOut)
}

func (r *recorder) add(name string, start, end time.Time, rowsIn, rowsOut int) {
	r.spans = append(r.spans, span{
		ID: r.id, Parent: spanParents[name], Name: name, Workload: r.workload, Class: r.class,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
		RowsIn: rowsIn, RowsOut: rowsOut,
	})
	r.ns[name] = append(r.ns[name], float64(end.Sub(start)))
}

// takeMedians returns the median duration of every span recorded since the
// last call, in nanoseconds.
func (r *recorder) takeMedians() map[string]float64 {
	m := make(map[string]float64, len(r.ns))
	for name, v := range r.ns {
		m[name] = median(v)
	}
	r.ns = map[string][]float64{}
	return m
}

// writeSpans writes the recorded spans, under the provenance header, as JSON.
func (r *recorder) writeSpans(path string, prov provenance) error {
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes subtracts from every span's time the times of its direct
// children that are present.
func selfTimes(times map[string]float64, parents map[string]string) map[string]float64 {
	self := make(map[string]float64, len(times))
	for name, t := range times {
		self[name] = t
	}
	for name, t := range times {
		if p := parents[name]; p != "" {
			if _, present := times[p]; present {
				self[p] -= t
			}
		}
	}
	return self
}

// loopback serves the in-process handler on a real socket. When spans are
// on, a middleware times the handler.
type loopback struct {
	hs           *http.Server
	done         chan struct{}
	base         string
	spansOn      atomic.Bool
	handlerStart atomic.Int64 // the last handler call, as nanoseconds since epoch
	handlerNS    atomic.Int64 // and how long it took
}

func startLoopback(h http.Handler, epoch time.Time) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	l.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.spansOn.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		l.handlerNS.Store(int64(time.Since(start)))
		l.handlerStart.Store(int64(start.Sub(epoch)))
	})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns once stop closes the server
	}()
	return l, nil
}

func (l *loopback) stop() {
	_ = l.hs.Close()
	<-l.done
}

// classTrace is what the traced pass measured for one statement class.
type classTrace struct {
	class byte
	// ns is the median time of every span, in nanoseconds.
	ns map[string]float64
	// Request medians over loopback, same process, in turn: with the
	// benchmark's spans on, with them off, and with the engine's own
	// iteration tracer asked for in the request.
	spansOnNS, spansOffNS, iterTraceNS float64
	localNS                            float64 // fixpoint.Local, the single-threaded baseline
	rowsOut, rowsScanned               int
	deltaRows, resultRows              int
	// result is the recursive view's fixpoint when it has two columns or
	// more; the kernels run over it.
	result *relation.Relation
}

// traceRequests sends the class's statement over loopback three times: with
// the benchmark's spans on (recording the request and the handler under it),
// with them off, and asking for the engine's iteration tracer. The order
// rotates with the repetition, so no variant always meets the same phase of
// the garbage collector's cycle.
func traceRequests(rec *recorder, l *loopback, cl *client, ct *classTrace, rep int, nextSQL func() string) (on, off, iter float64, err error) {
	for k := 0; k < 3; k++ {
		variant := (rep + k) % 3
		l.spansOn.Store(variant == 0)
		trace := ""
		if variant == 2 {
			trace = "iterations"
		}
		start := time.Now()
		status, reply, elapsed, err := cl.do(queryBody(nextSQL(), trace))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, reply)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		switch variant {
		case 0:
			rec.add("request", start, start.Add(elapsed), 0, ct.rowsOut)
			hs := rec.epoch.Add(time.Duration(l.handlerStart.Load()))
			rec.add("server.handler", hs, hs.Add(time.Duration(l.handlerNS.Load())), 0, ct.rowsOut)
			on = float64(elapsed)
		case 1:
			off = float64(elapsed)
		case 2:
			iter = float64(elapsed)
		}
	}
	return on, off, iter, nil
}

// traceCalls times, one by one, the calls the handler makes for a statement,
// and returns the analyzed program.
func (p *inProcess) traceCalls(rec *recorder, ct *classTrace, cache *server.PlanCache, rep int, sql string) (*analyze.Program, error) {
	ctx := context.Background()
	var norm string
	var err error
	rec.timed("server.normalize", 0, func() int {
		norm, err = server.NormalizeSQL(sql)
		return 0
	})
	if err != nil {
		return nil, err
	}
	var prep *rasql.Prepared
	rec.timed("engine.prepare", 0, func() int {
		prep, err = p.eng.Prepare(sql)
		return 0
	})
	if err != nil {
		return nil, err
	}
	// Put a key the cache has not seen, as after a miss (it evicts once the
	// cache is full); then Get one it holds.
	rec.timed("server.plan_cache_put", 0, func() int {
		cache.Put(fmt.Sprintf("%s -- %d", norm, rep), prep)
		return 0
	})
	cache.Put(norm, prep)
	rec.timed("server.plan_cache_get", 0, func() int {
		cache.Get(norm, prep.CatalogVersion())
		return 0
	})

	// Prepare's three steps. The catalog clone it also makes is in none of
	// them and stays in engine.prepare's self time.
	var prog *analyze.Program
	var stmts []ast.Statement
	rec.timed("sql.parse", 0, func() int {
		stmts, err = parser.Parse(sql)
		return 0
	})
	if err != nil || len(stmts) != 1 {
		return nil, fmt.Errorf("parse: %d statements: %v", len(stmts), err)
	}
	cat := p.eng.Catalog().Clone()
	rec.timed("sql.analyze", 0, func() int {
		prog, err = analyze.Statement(stmts[0], cat)
		return 0
	})
	if err != nil {
		return nil, err
	}
	rec.timed("sql.optimize", 0, func() int {
		prog = optimize.Program(prog)
		return 0
	})

	rec.timed("engine.exec_prepared", 0, func() int {
		var out *relation.Relation
		if out, err = p.eng.ExecPrepared(ctx, prep, nil); err == nil {
			ct.rowsOut = out.Len()
		}
		return ct.rowsOut
	})
	if err != nil {
		return nil, err
	}

	// ExecPrepared's two steps: the fixpoint of the recursive clique, if the
	// statement has one, and the final query over the result. RunClique is
	// the engine's own call of fixpoint.Distributed, in a query of its own
	// on the engine's cluster, with the settings the engine derived from its
	// Config; nothing about them is repeated here.
	ectx := exec.NewContext()
	if recursive(prog) {
		var res *fixpoint.Result
		view := strings.ToLower(prog.Clique.Views[0].Name)
		rec.timed("fixpoint.distributed", 0, func() int {
			if res, err = p.eng.RunClique(prog); err != nil {
				return 0
			}
			return res.Relations[view].Len()
		})
		if err != nil {
			return nil, err
		}
		rec.timed("fixpoint.plan", 0, func() int {
			_, err = fixpoint.PlanDistributed(prog.Clique)
			return 0
		})
		if err != nil {
			return nil, err
		}
		res.Bind(ectx)
		ct.resultRows = res.Relations[view].Len()
		if res.Relations[view].Schema.Len() >= 2 {
			ct.result = res.Relations[view]
		}
	}
	ct.rowsScanned = 0
	for _, s := range prog.Final.Sources {
		rel, err := ectx.SourceRelation(s)
		if err != nil {
			return nil, err
		}
		ct.rowsScanned += rel.Len()
	}
	rec.timed("sql.exec_final", ct.rowsScanned, func() int {
		var out *relation.Relation
		if out, err = exec.Query(prog.Final, ectx); err != nil {
			return 0
		}
		return out.Len()
	})
	return prog, err
}

func recursive(prog *analyze.Program) bool {
	return prog.Clique != nil && len(prog.Clique.Views) > 0
}

// traceClass times one statement class layer by layer. Every repetition
// makes the direct calls and then the loopback requests, so drift of the
// host falls on a span and on its children alike. nextSQL returns the
// class's statement (with a new literal every time for class B).
func (p *inProcess) traceClass(rec *recorder, l *loopback, cl *client, class byte, nextSQL func() string) (*classTrace, error) {
	ct := &classTrace{class: class}
	rec.class = string(class)
	cache := server.NewPlanCache(planCacheCapacity, obs.NewRegistry())
	var on, off, iter, local []float64
	var prog *analyze.Program
	for rep := 0; rep < traceReps; rep++ {
		rec.id++
		if class != classV { // CREATE VIEW is not compiled or run as a plan
			var err error
			if prog, err = p.traceCalls(rec, ct, cache, rep, nextSQL()); err != nil {
				return nil, fmt.Errorf("traced calls, class %c: %w", class, err)
			}
			// The single-threaded evaluator as the baseline, a quarter as often.
			if recursive(prog) && rep%4 == 0 {
				start := time.Now()
				if _, err := fixpoint.Local(prog.Clique, exec.NewContext(), fixpoint.Options{}); err != nil {
					return nil, err
				}
				local = append(local, float64(time.Since(start)))
			}
		}
		a, b, c, err := traceRequests(rec, l, cl, ct, rep, nextSQL)
		if err != nil {
			return nil, fmt.Errorf("traced requests, class %c: %w", class, err)
		}
		on, off, iter = append(on, a), append(off, b), append(iter, c)
	}
	ct.ns = rec.takeMedians()
	ct.spansOnNS, ct.spansOffNS, ct.iterTraceNS, ct.localNS = median(on), median(off), median(iter), median(local)

	// Delta rows, from the engine's own iteration tracer.
	if prog != nil {
		tr := rasql.NewIterationsTracer()
		prep, err := p.eng.Prepare(nextSQL())
		if err != nil {
			return nil, err
		}
		if _, err := p.eng.ExecPrepared(context.Background(), prep, &rasql.ExecOptions{Tracer: tr}); err != nil {
			return nil, err
		}
		for _, it := range tr.Iterations() {
			ct.deltaRows += it.DeltaRows
		}
	}
	return ct, nil
}
