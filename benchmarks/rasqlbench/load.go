package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// answer is what a response is checked by inside the rounds: a checksum of
// everything before the "cached" field (columns, rows and row_count, whose
// bytes are the same for the same statement) and the two fields after it that
// the benchmark reads.
type answer struct {
	sum        uint32
	cached     bool
	iterations int64
}

var (
	cachedField     = []byte(`,"cached":`)
	iterationsField = []byte(`"iterations":`)
)

// parseAnswer reads a /v1/query response body without decoding its rows.
func parseAnswer(body []byte) (answer, error) {
	i := bytes.LastIndex(body, cachedField)
	if i < 0 {
		return answer{}, fmt.Errorf("response has no cached field: %.80q", body)
	}
	tail := body[i+len(cachedField):]
	a := answer{sum: crc32.ChecksumIEEE(body[:i]), cached: bytes.HasPrefix(tail, []byte("true"))}
	j := bytes.Index(tail, iterationsField)
	if j < 0 {
		return answer{}, fmt.Errorf("response has no stats.iterations: %.80q", tail)
	}
	for _, d := range tail[j+len(iterationsField):] {
		if d < '0' || d > '9' {
			break
		}
		a.iterations = a.iterations*10 + int64(d-'0')
	}
	return a, nil
}

// client is one closed-loop caller with one connection of its own.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url: base + "/v1/query",
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// queryBody is the JSON body of a /v1/query request.
func queryBody(sql string, trace string) []byte {
	b, err := json.Marshal(struct {
		SQL      string            `json:"sql"`
		Settings map[string]string `json:"settings,omitempty"`
	}{sql, traceSettings(trace)})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

func traceSettings(trace string) map[string]string {
	if trace == "" {
		return nil
	}
	return map[string]string{"trace": trace}
}

// do sends one request and reads the whole reply. The returned body is valid
// until the next call. The time runs from before the request is written to
// after the last byte of the body is read.
func (c *client) do(body []byte) (status int, reply []byte, elapsed time.Duration, err error) {
	start := time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	elapsed = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, err
	}
	return resp.StatusCode, c.buf.Bytes(), elapsed, nil
}

// roundResult is what one round of one workload measured. Times are at the
// reference host speed: what was measured, divided by how much slower than
// nominal the host reference ran between the round's slices.
type roundResult struct {
	latencyMS    []float64 // every request's, as measured, sorted
	refMS        []float64 // the host reference before every slice, as measured
	p50ms        float64
	rawP50ms     float64 // as measured
	qps          float64
	cpuMSPerReq  float64
	attempted    int
	failed       int
	firstFailure string
}

// ddlEpoch counts CREATE VIEW requests started and finished (two steps per
// statement), so a client can tell whether the plan cache may have been
// emptied since it last sent a statement.
type ddlEpoch struct{ atomic.Int64 }

// runRound sends every client's requests of the round and checks every reply
// against want. The round is cut into slices of perSlice requests per client:
// before each slice, while the server is idle, the host reference runs once;
// within a slice the clients run in parallel, each in a closed loop. Only the
// slices count towards the wall time that throughput is taken over.
func runRound(c *child, w workload, round int, clients []*client, want map[string]answer, epoch *ddlEpoch) (roundResult, error) {
	n := w.perRound
	type prepared struct {
		req  request
		body []byte
	}
	plan := make([][]prepared, w.clients)
	for ci := range plan {
		plan[ci] = make([]prepared, n)
		for i := range plan[ci] {
			r := w.at(ci, round, i)
			plan[ci][i] = prepared{r, queryBody(r.sql, "")}
		}
	}
	lat := make([][]float64, w.clients)
	failed := make([]int, w.clients)
	failure := make([]string, w.clients)
	seen := make([]map[string]int64, w.clients) // class A key → epoch it was last answered in
	for ci := range seen {
		lat[ci] = make([]float64, 0, n)
		seen[ci] = map[string]int64{}
	}
	slice := func(ci, from int) {
		for _, p := range plan[ci][from : from+w.perSlice] {
			e0 := epoch.Load()
			if p.req.class == classV {
				epoch.Add(1)
			}
			status, reply, elapsed, err := clients[ci].do(p.body)
			if p.req.class == classV {
				epoch.Add(1)
			}
			stable := e0%2 == 0 && epoch.Load() == e0
			lat[ci] = append(lat[ci], float64(elapsed)/float64(time.Millisecond))
			if msg := checkReply(p.req, status, reply, err, want, stable && seen[ci][p.req.key] == e0+1); msg != "" {
				failed[ci]++
				if failure[ci] == "" {
					failure[ci] = msg
				}
			}
			if stable {
				seen[ci][p.req.key] = e0 + 1
			}
		}
	}

	res := roundResult{refMS: make([]float64, 0, n/w.perSlice)}
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return roundResult{}, err
	}
	var wall time.Duration
	for from := 0; from < n; from += w.perSlice {
		res.refMS = append(res.refMS, hostRef())
		var wg sync.WaitGroup
		start := time.Now()
		for ci := 1; ci < w.clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				slice(ci, from)
			}(ci)
		}
		slice(0, from)
		wg.Wait()
		wall += time.Since(start)
	}
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return roundResult{}, err
	}

	var all []float64
	for ci := range lat {
		all = append(all, lat[ci]...)
		res.failed += failed[ci]
		if res.firstFailure == "" {
			res.firstFailure = failure[ci]
		}
	}
	speed := hostSpeed(res.refMS)
	res.attempted = len(all)
	res.rawP50ms = percentile(all, 0.50)
	res.latencyMS = all
	res.p50ms = res.rawP50ms / speed
	res.qps = float64(len(all)) / wall.Seconds() * speed
	res.cpuMSPerReq = (cpu1 - cpu0) * 1000 / float64(len(all)) / speed
	return res, nil
}

// checkReply returns why a reply is wrong, or "" when it is right.
// mustBeCached says that a class A statement was already answered since the
// last CREATE VIEW, so its plan has to come from the cache.
func checkReply(r request, status int, reply []byte, err error, want map[string]answer, mustBeCached bool) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", r.key, err)
	}
	if status != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %.200s", r.key, status, reply)
	}
	got, err := parseAnswer(reply)
	if err != nil {
		return fmt.Sprintf("%s: %v", r.key, err)
	}
	exp, ok := want[r.key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no expected answer", r.key)
	case got.sum != exp.sum:
		return fmt.Sprintf("%s: rows or row_count differ from the checked answer (checksum %08x, want %08x)", r.key, got.sum, exp.sum)
	case got.iterations != exp.iterations:
		return fmt.Sprintf("%s: %d iterations, want %d", r.key, got.iterations, exp.iterations)
	case r.class == classB && got.cached:
		return fmt.Sprintf("%s: unrepeated statement answered from the plan cache", r.key)
	case r.class == classA && mustBeCached && !got.cached:
		return fmt.Sprintf("%s: repeated statement compiled again", r.key)
	}
	return ""
}
