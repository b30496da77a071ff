package main

import (
	"bytes"
	"net/http"
	"runtime"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/server"
)

// doer sends one /v1/query request body and returns the whole reply, valid
// until the next call: over loopback HTTP (client) or straight into the
// handler (inProcess).
type doer interface {
	do(body []byte) (status int, reply []byte, elapsed time.Duration, err error)
}

// inProcess is the engine and server rasqld builds, in this process, with the
// full catalog loaded from the same CSV files and every setting at its
// default. Allocation counts and the per-layer pass are taken here, where
// runtime.MemStats and the public functions of each layer can be reached.
type inProcess struct {
	eng     *rasql.Engine
	srv     *server.Server
	handler http.Handler
	rw      memWriter
}

func newInProcess(tableFlags []string) (*inProcess, error) {
	eng, err := loadEngine(rasql.Config{}, tableFlags)
	if err != nil {
		return nil, err
	}
	srv := server.New(eng, server.Config{})
	return &inProcess{eng: eng, srv: srv, handler: srv.Handler(), rw: memWriter{header: http.Header{}}}, nil
}

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

func (w *memWriter) reset() {
	clear(w.header)
	w.body.Reset()
	w.status = http.StatusOK
}

func newQueryRequest(body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and URL
	}
	return req
}

// serve runs one prepared request through the handler.
func (p *inProcess) serve(req *http.Request) (status int, reply []byte, elapsed time.Duration) {
	p.rw.reset()
	start := time.Now()
	p.handler.ServeHTTP(&p.rw, req)
	return p.rw.status, p.rw.body.Bytes(), time.Since(start)
}

func (p *inProcess) do(body []byte) (int, []byte, time.Duration, error) {
	status, reply, elapsed := p.serve(newQueryRequest(body))
	return status, reply, elapsed, nil
}

// memDelta is what a batch of in-process requests cost the Go runtime.
type memDelta struct {
	requests     int
	mallocs      float64 // heap objects allocated per request
	allocKB      float64 // KiB allocated per request
	gcCycles     float64 // GC cycles per request
	gcPauseUS    float64 // stop-the-world pause per request, µs
	heapLiveMB   float64 // live heap after a collection at the end, MiB
	failed       int
	firstFailure string
}

// inProcessRound is the round number in-process requests are drawn from; it
// only has to differ from the rounds already sent to this engine.
const inProcessRound = 1000

// measureMemory sends n requests of client 0's sequence through the handler,
// after an unmeasured pass of warm requests that fills the plan cache and the
// buffer pools, and reports the runtime.MemStats deltas per request. Requests
// are built beforehand so only the handler's work is counted.
func (p *inProcess) measureMemory(w workload, warm, n int, want map[string]answer) memDelta {
	d := memDelta{requests: warm + n}
	for pass, n := range []int{warm, n} {
		reqs := make([]request, n)
		https := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = w.at(0, inProcessRound+pass, i)
			https[i] = newQueryRequest(queryBody(reqs[i].sql, ""))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i, hr := range https {
			status, reply, _ := p.serve(hr)
			if msg := checkReply(reqs[i], status, reply, nil, want, false); msg != "" {
				d.failed++
				if d.firstFailure == "" {
					d.firstFailure = "in process: " + msg
				}
			}
		}
		runtime.ReadMemStats(&after)
		per := func(delta uint64) float64 { return float64(delta) / float64(n) }
		d.mallocs = per(after.Mallocs - before.Mallocs)
		d.allocKB = per(after.TotalAlloc-before.TotalAlloc) / 1024
		d.gcCycles = per(uint64(after.NumGC - before.NumGC))
		d.gcPauseUS = per(after.PauseTotalNs-before.PauseTotalNs) / 1000
	}
	var end runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&end)
	d.heapLiveMB = float64(end.HeapAlloc) / (1 << 20)
	return d
}

// memoryRequests is how many in-process requests measureMemory sends, warm
// and measured: one whole CREATE VIEW cycle each for short-mix, 10 and 50
// statements for the others.
func memoryRequests(w workload) (warm, measured int) {
	if w.perRound >= mixDDLEvery {
		return mixDDLEvery, mixDDLEvery
	}
	return 10, 50
}
