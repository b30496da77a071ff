package trace_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/trace"
	"github.com/rasql/rasql-go/queries"
)

// weightedEdges is a small directed graph with positive costs and a cycle.
func weightedEdges() *rasql.Relation {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt), rasql.Col("Cost", rasql.KindFloat))
	e := rasql.NewRelation("edge", schema)
	for _, t := range [][3]float64{
		{1, 2, 1}, {1, 3, 4}, {2, 3, 2}, {3, 4, 1}, {4, 2, 5}, {2, 5, 10}, {5, 1, 1},
	} {
		e.Append(rasql.Row{rasql.Int(int64(t[0])), rasql.Int(int64(t[1])), rasql.Float(t[2])})
	}
	return e
}

// TestTraceExport runs a recursive query with a full tracer attached and
// checks the Chrome export validates and records the expected tracks.
func TestTraceExport(t *testing.T) {
	eng := rasql.New(rasql.Config{Cluster: rasql.ClusterConfig{Workers: 2, Partitions: 2}})
	eng.MustRegister(weightedEdges())
	tr := rasql.NewTracer()
	eng.SetTracer(tr)
	if _, err := eng.Query(queries.SSSP); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Iterations()); n == 0 {
		t.Fatal("no fixpoint iterations recorded")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v\n%s", err, buf.String())
	}
	for _, want := range []string{`"driver"`, `"worker 0"`, `"fixpoint iterations"`, "delta rows"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestConcurrentQueriesTraceExport attaches one tracer while concurrent
// queries run: the shared log must export per-query processes that pass
// Chrome validation.
func TestConcurrentQueriesTraceExport(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	eng.SetTracer(rasql.NewTracer())
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Query(queries.SSSP); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := eng.Tracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("concurrent-query trace does not validate: %v", err)
	}
	out := buf.String()
	// Three queries: qid 1 shares pid 1 with the root handle, 2 and 3 get
	// their own named processes.
	for _, want := range []string{`"rasql query 2"`, `"rasql query 3"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing process name %s", want)
		}
	}
}
