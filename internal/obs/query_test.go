package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// promValue reads one un-labelled sample back through the exposition
// round-trip — the same path a real scrape takes.
func promValue(t *testing.T, reg *Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not re-parse: %v", err)
	}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			if s.Name == name && len(s.Labels) == 0 {
				return s.Value
			}
		}
	}
	t.Fatalf("sample %s not found", name)
	return 0
}

func TestRecorderFold(t *testing.T) {
	r := NewRecorder()
	r.QueryStarted()
	r.QueryStarted()
	if got := promValue(t, r.Registry(), "rasql_queries_inflight"); got != 2 {
		t.Errorf("inflight after two starts = %v, want 2", got)
	}
	r.ObserveQuery(QueryStats{ID: 1, WallNanos: 1000, Iterations: 3, ShuffleBytes: 64, TaskRetries: 2, StaleReads: 5})
	r.ObserveQuery(QueryStats{ID: 2, WallNanos: 2000, Err: "boom"})

	reg := r.Registry()
	checks := map[string]float64{
		"rasql_queries_total":             2,
		"rasql_query_errors_total":        1,
		"rasql_queries_inflight":          0,
		"rasql_task_retries_total":        2,
		"rasql_stale_reads_total":         5,
		"rasql_query_latency_nanos_count": 2,
	}
	for name, want := range checks {
		if got := promValue(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	last, ok := r.Last()
	if !ok || last.ID != 2 || last.Err != "boom" {
		t.Errorf("Last() = %+v/%v, want query 2", last, ok)
	}
}

func TestRecorderLast(t *testing.T) {
	r := NewRecorder()
	if _, ok := r.Last(); ok {
		t.Fatal("Last() reports a record before any query finished")
	}
	const n = 165
	for i := 1; i <= n; i++ {
		r.QueryStarted()
		r.ObserveQuery(QueryStats{ID: uint64(i)})
	}
	if last, ok := r.Last(); !ok || last.ID != n {
		t.Errorf("Last() = %d/%v, want %d", last.ID, ok, n)
	}
}

func TestRecorderQueryLog(t *testing.T) {
	r := NewRecorder()
	var buf bytes.Buffer
	r.SetLogger(slog.New(slog.NewJSONHandler(&buf, nil)))
	r.QueryStarted()
	r.ObserveQuery(QueryStats{ID: 7, WallNanos: 123, Mode: "bsp", FallbackReason: "prem refuted"})
	line := buf.String()
	for _, want := range []string{`"qid":7`, `"wall_nanos":123`, `"mode":"bsp"`, `"fallback":"prem refuted"`, "query finished"} {
		if !strings.Contains(line, want) {
			t.Errorf("query log line %q missing %q", line, want)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.QueryStarted()
				r.ObserveQuery(QueryStats{ID: uint64(g*perG + i + 1), WallNanos: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := promValue(t, r.Registry(), "rasql_queries_total"); got != goroutines*perG {
		t.Errorf("rasql_queries_total = %v, want %d", got, goroutines*perG)
	}
	if got := promValue(t, r.Registry(), "rasql_queries_inflight"); got != 0 {
		t.Errorf("rasql_queries_inflight = %v, want 0 after all queries finished", got)
	}
	if _, ok := r.Last(); !ok {
		t.Error("Last() reports no record after all queries finished")
	}
}

func ExampleRegistry_WritePrometheus() {
	reg := NewRegistry()
	reg.Counter("example_total", "An example counter.").Add(3)
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP example_total An example counter.
	// # TYPE example_total counter
	// example_total 3
}
