package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/queries"
)

// chainEngine registers a 1→2→…→n chain as edge(Src,Dst,Cost): SSSP on it
// needs n-1 fixpoint iterations, making query wall time tunable from tests.
func chainEngine(t *testing.T, n int64) *rasql.Engine {
	t.Helper()
	schema := rasql.NewSchema(
		rasql.Col("Src", rasql.KindInt),
		rasql.Col("Dst", rasql.KindInt),
		rasql.Col("Cost", rasql.KindFloat))
	e := rasql.NewRelation("edge", schema)
	for i := int64(1); i < n; i++ {
		e.Append(rasql.Row{rasql.Int(i), rasql.Int(i + 1), rasql.Float(1)})
	}
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(e)
	return eng
}

// post sends one JSON request and returns status, headers and parsed body.
func post(t *testing.T, url string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header, out
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// metricLine returns the sample line for name ("name value") or "".
func metricLine(exposition, name string) string {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return ""
}

// TestServerTimeout: a deadline shorter than the query cancels the fixpoint
// at an iteration boundary — the client gets 408 with the iteration count in
// the error, the timeout counter increments, and no goroutines leak.
func TestServerTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-query timeout test is not short")
	}
	// SSSP must outlast the 150 ms deadline: a 2-vCPU host runs the 29,999
	// iterations of a 30,000 chain in 150–200 ms, so that chain finished
	// first now and then.
	eng := chainEngine(t, 100000)
	srv := New(eng, Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm-up request so the client's keep-alive connection (and its two
	// transport goroutines) exists before the baseline count is taken.
	if status, _, out := post(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM edge"}); status != http.StatusOK {
		t.Fatalf("warm-up query: status %d (body: %v)", status, out)
	}
	before := runtime.NumGoroutine()
	status, _, out := post(t, ts.URL+"/v1/query", map[string]any{
		"sql":      queries.SSSP,
		"settings": map[string]any{"timeout_ms": 150},
	})
	if status != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408 (body: %v)", status, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "iteration boundary") {
		t.Errorf("error %q does not mention the iteration boundary", msg)
	}

	// The fixpoint must actually stop: all worker goroutines wind down to
	// the pre-request level (plus scheduler slack) shortly after the 408.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancelled query: before %d, now %d",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	exp := scrapeMetrics(t, ts.URL)
	if line := metricLine(exp, "rasql_server_timeouts_total"); line != "rasql_server_timeouts_total 1" {
		t.Errorf("timeouts counter line = %q, want 1", line)
	}

	// A generous deadline leaves the same query untouched.
	status, _, out = post(t, ts.URL+"/v1/query", map[string]any{
		"sql":      "SELECT count(*) FROM edge",
		"settings": map[string]any{"timeout_ms": 60000},
	})
	if status != http.StatusOK {
		t.Fatalf("fast query under deadline: status %d (body: %v)", status, out)
	}
}

// TestServerCrossProductTimeout: a statement outside any fixpoint stops at
// its deadline too. A 20,000 × 20,000 cross product would run for many
// seconds; with a 100 ms deadline its join polls the request context every
// 4,096 rows it visits, counted or filtered out alike, so the client gets
// 408 within 250 ms, and the server then answers the next query with no
// goroutine left behind.
func TestServerCrossProductTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("timeout test is not short")
	}
	eng := chainEngine(t, 20001)
	ts := httptest.NewServer(New(eng, Config{MaxConcurrent: 2}).Handler())
	defer ts.Close()
	if status, _, out := post(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM edge"}); status != http.StatusOK {
		t.Fatalf("warm-up query: status %d (body: %v)", status, out)
	}
	before := runtime.NumGoroutine()
	for _, sql := range []string{
		"SELECT count(*) FROM edge x, edge y",
		"SELECT count(*) FROM edge x, edge y WHERE x.Src + y.Src < 0",
	} {
		start := time.Now()
		status, _, out := post(t, ts.URL+"/v1/query", map[string]any{
			"sql":      sql,
			"settings": map[string]any{"timeout_ms": 100},
		})
		took := time.Since(start)
		if status != http.StatusRequestTimeout {
			t.Fatalf("%s: status = %d, want 408 (body: %v)", sql, status, out)
		}
		if took > 250*time.Millisecond {
			t.Errorf("%s: the 408 took %v, want at most 250ms", sql, took)
		}
		if status, _, out := post(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM edge"}); status != http.StatusOK {
			t.Fatalf("query after the timeout: status %d (body: %v)", status, out)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after the cancelled statement: before %d, now %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerAdmissionSaturation: with one execution slot and a one-deep
// queue, a running query plus a queued one saturate the server — the next
// request gets an immediate 429 with Retry-After, and the queue-depth gauge
// is visible in /metrics while the backlog exists.
func TestServerAdmissionSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation test is not short")
	}
	eng := chainEngine(t, 30000)
	srv := New(eng, Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	query := func(timeoutMillis int64) (int, http.Header) {
		buf, _ := json.Marshal(map[string]any{
			"sql":      queries.SSSP,
			"settings": map[string]any{"timeout_ms": timeoutMillis},
		})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, nil
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header
	}
	waitGauge := func(name string, want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if line := metricLine(scrapeMetrics(t, ts.URL), name); line == fmt.Sprintf("%s %d", name, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("gauge %s never reached %d; exposition:\n%s", name, want,
					metricLine(scrapeMetrics(t, ts.URL), name))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	wg.Add(1)
	go func() { defer wg.Done(); statuses[0], _ = query(-1) }() // holds the slot (~1.5s)
	waitGauge("rasql_server_active_requests", 1)
	wg.Add(1)
	go func() { defer wg.Done(); statuses[1], _ = query(-1) }() // waits in the queue
	waitGauge("rasql_server_queue_depth", 1)

	// Saturated: slot busy, queue full. The next request bounces.
	status, hdr := query(-1)
	if status != http.StatusTooManyRequests {
		t.Errorf("saturated request: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	exp := scrapeMetrics(t, ts.URL)
	if line := metricLine(exp, "rasql_server_rejected_total"); line != "rasql_server_rejected_total 1" {
		t.Errorf("rejected counter line = %q, want 1", line)
	}

	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("admitted query %d: status %d, want 200", i, status)
		}
	}
	waitGauge("rasql_server_queue_depth", 0)
	waitGauge("rasql_server_active_requests", 0)
}

// TestServerQueueTimeout: a request whose deadline expires while it is still
// queued gets 503 (not 408 — it never started executing) with Retry-After.
func TestServerQueueTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("queue-timeout test is not short")
	}
	eng := chainEngine(t, 30000)
	srv := New(eng, Config{MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf, _ := json.Marshal(map[string]any{"sql": queries.SSSP, "settings": map[string]any{"timeout_ms": -1}})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if line := metricLine(scrapeMetrics(t, ts.URL), "rasql_server_active_requests"); line == "rasql_server_active_requests 1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot holder never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	status, hdr, out := post(t, ts.URL+"/v1/query", map[string]any{
		"sql":      "SELECT count(*) FROM edge",
		"settings": map[string]any{"timeout_ms": 100},
	})
	if status != http.StatusServiceUnavailable {
		t.Errorf("queued past deadline: status %d, want 503 (body: %v)", status, out)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	wg.Wait()
}

// TestServerDrain: draining flips /readyz, refuses new work with 503 +
// Retry-After, and Drain returns once in-flight requests finish. Drain's
// watcher goroutine must be gone afterwards, whether Drain completed or its
// context expired first.
func TestServerDrain(t *testing.T) {
	eng := chainEngine(t, 50)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _, _ := post(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM edge"}); status != http.StatusOK {
		t.Fatalf("pre-drain query: status %d", status)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	waitForGoroutines(t, "drain", base)
	status, hdr, _ := post(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM edge"})
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain query: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("post-drain 503 missing Retry-After")
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
	// /metrics and /healthz keep serving for the final scrape.
	if exp := scrapeMetrics(t, ts.URL); metricLine(exp, "rasql_server_requests_total") == "" {
		t.Error("/metrics unavailable while draining")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: status %d, want 200", resp.StatusCode)
	}
	t.Run("aborted", testDrainAborted)
}

// testDrainAborted covers the drain watcher Drain leaves behind when its
// context expires with a request still in flight: the watcher must end once
// that request finishes, taking the goroutine count back to its pre-request
// value.
func testDrainAborted(t *testing.T) {
	eng := chainEngine(t, 30000)
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm-up request so the client's keep-alive connection (and its
	// transport goroutines) exists before the baseline count is taken.
	if status, _, _ := post(t, ts.URL+"/v1/query", map[string]any{"sql": "SELECT count(*) FROM edge"}); status != http.StatusOK {
		t.Fatalf("warm-up query: status %d", status)
	}
	base := runtime.NumGoroutine()
	body, err := json.Marshal(map[string]any{
		"sql":      queries.SSSP,
		"settings": map[string]any{"timeout_ms": 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.adm.active.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("slow query never started executing")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Error("Drain returned nil with a request in flight, want an abort error")
	}
	if err := <-done; err != nil {
		t.Fatalf("slow query: %v", err)
	}
	waitForGoroutines(t, "aborted drain", base)
}

// waitForGoroutines fails the test, with every goroutine's stack, unless
// the goroutine count falls back to base within a few seconds.
func waitForGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines still running, %d before:\n%s", what, runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
