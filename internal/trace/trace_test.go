package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.Begin("task", 3)
		s.End()
		tr.BeginArgs("task", 3).End()
		is := tr.BeginIteration(1)
		is.End(IterationEvent{DeltaRows: 7})
		if tr.Enabled() || tr.SpansEnabled() {
			t.Fatal("nil tracer reports enabled")
		}
		if tr.Now() != 0 {
			t.Fatal("nil tracer reports a nonzero clock")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v allocs/op, want 0", allocs)
	}
}

func TestIterationsOnlyLevelDropsSpans(t *testing.T) {
	tr := NewIterationsOnly()
	tr.Begin("stage", TidDriver).End()
	tr.Instant("mark", TidDriver)
	is := tr.BeginIteration(2)
	is.End(IterationEvent{Mode: "dsn-two-stage", DeltaRows: 5, AllRows: 9})
	if got := tr.Events(); len(got) != 0 {
		t.Fatalf("iterations-only tracer recorded %d span events, want 0", len(got))
	}
	iters := tr.Iterations()
	if len(iters) != 1 {
		t.Fatalf("got %d iteration events, want 1", len(iters))
	}
	ev := iters[0]
	if ev.Iter != 2 || ev.DeltaRows != 5 || ev.AllRows != 9 || ev.Mode != "dsn-two-stage" {
		t.Fatalf("unexpected iteration event: %+v", ev)
	}
	if ev.EndNS < ev.StartNS {
		t.Fatalf("iteration ends before it starts: %+v", ev)
	}
}

func TestSpansRecorded(t *testing.T) {
	tr := New()
	outer := tr.Begin("outer", TidDriver)
	tr.BeginArgs("task", TidWorker(0), Arg{"part", 3}).End()
	tr.BeginArgs("task", TidWorker(1), Arg{"part", 4}).End()
	outer.End()

	events := tr.Events()
	stats := SummarizeSpans(events, nil)
	if len(stats) != 2 {
		t.Fatalf("got %d span stats, want 2: %+v", len(stats), stats)
	}
	// Spans are recorded when they End, so the inner tasks land first.
	if stats[0].Name != "task" || stats[0].Count != 2 {
		t.Fatalf("first stat = %+v, want task×2 (first-seen order)", stats[0])
	}
	if stats[1].Name != "outer" || stats[1].Count != 1 {
		t.Fatalf("second stat = %+v, want outer×1", stats[1])
	}
	workerOnly := SummarizeSpans(events, func(e Event) bool { return e.Tid != TidDriver })
	if len(workerOnly) != 1 || workerOnly[0].Count != 2 {
		t.Fatalf("filtered stats = %+v, want task×2 only", workerOnly)
	}
}

func TestSkew(t *testing.T) {
	ev := IterationEvent{PartRows: []int{10, 10, 10, 10}}
	if got := ev.Skew(); got != 1 {
		t.Fatalf("balanced skew = %v, want 1", got)
	}
	ev = IterationEvent{PartRows: []int{40, 0, 0, 0}}
	if got := ev.Skew(); got != 4 {
		t.Fatalf("skewed = %v, want 4", got)
	}
	ev = IterationEvent{}
	if got := ev.Skew(); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

func TestWriteChromeValidates(t *testing.T) {
	tr := New()
	stage := tr.Begin("stage shufflemap", TidDriver)
	tr.BeginArgs("task", TidWorker(0), Arg{"part", 0}).End()
	tr.BeginArgs("task", TidWorker(1), Arg{"part", 1}).End()
	stage.End()
	it := tr.BeginIteration(1)
	it.End(IterationEvent{Mode: "dsn-two-stage", DeltaRows: 3, AllRows: 5, ShuffleBytes: 64, PartRows: []int{2, 3}})
	tr.Instant("fixpoint reached", TidDriver)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("own output does not validate: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"worker 0"`, `"worker 1"`, `"driver"`, `"fixpoint iterations"`, `"delta rows"`, `"traceEvents"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome output missing %s", want)
		}
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no events":      `{"traceEvents":[]}`,
		"unnamed":        `[{"ph":"i","pid":1,"tid":0,"ts":1}]`,
		"bad phase":      `[{"name":"x","ph":"Q","pid":1,"tid":0,"ts":1}]`,
		"missing ts":     `[{"name":"x","ph":"i","pid":1,"tid":0}]`,
		"negative ts":    `[{"name":"x","ph":"i","pid":1,"tid":0,"ts":-1}]`,
		"time travel":    `[{"name":"a","ph":"i","pid":1,"tid":0,"ts":5},{"name":"b","ph":"i","pid":1,"tid":0,"ts":2}]`,
		"unopened end":   `[{"name":"x","ph":"E","pid":1,"tid":0,"ts":1}]`,
		"mismatched end": `[{"name":"a","ph":"B","pid":1,"tid":0,"ts":1},{"name":"b","ph":"E","pid":1,"tid":0,"ts":2}]`,
		"unclosed begin": `[{"name":"a","ph":"B","pid":1,"tid":0,"ts":1}]`,
		"negative dur":   `[{"name":"a","ph":"X","pid":1,"tid":0,"ts":1,"dur":-2}]`,
	}
	for name, doc := range cases {
		if err := ValidateChrome([]byte(doc)); err == nil {
			t.Errorf("%s: validated but should not have", name)
		}
	}
	ok := `[{"name":"m","ph":"M","pid":1,"tid":0},{"name":"a","ph":"B","pid":1,"tid":0,"ts":1},{"name":"a","ph":"E","pid":1,"tid":0,"ts":2}]`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("bare array with balanced spans rejected: %v", err)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.BeginArgs("task", TidWorker(w), Arg{"part", int64(i)}).End()
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if got := len(tr.Events()); got != 800 {
		t.Fatalf("recorded %d events, want 800", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("concurrent trace does not validate: %v", err)
	}
}

// BenchmarkDisabledTracer pins the disabled-tracer hot-path cost: run with
// -benchmem, it must report 0 allocs/op.
func BenchmarkDisabledTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Begin("task", 1)
		s.End()
		if tr.SpansEnabled() {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin("task", 1).End()
	}
}

// TestMultiQueryChrome drives two per-query tracer handles over one shared
// log from concurrent goroutines: the export must give each query its own
// named process (pid = query ID), and ValidateChrome must accept the
// interleaved file because it tracks spans and timelines per (pid, tid).
func TestMultiQueryChrome(t *testing.T) {
	root := New()
	done := make(chan struct{})
	for q := 1; q <= 2; q++ {
		go func(q int) {
			defer func() { done <- struct{}{} }()
			tr := root.ForQuery(int64(q))
			sp := tr.Begin("fixpoint", TidDriver)
			for i := 0; i < 50; i++ {
				tr.BeginArgs("task", TidWorker(i%4), Arg{"part", int64(i)}).End()
			}
			sp.End()
		}(q)
	}
	<-done
	<-done

	events := root.Events()
	if len(events) != 2*(1+50) {
		t.Fatalf("shared log holds %d events, want %d", len(events), 2*(1+50))
	}
	byQid := map[int64]int{}
	for _, e := range events {
		byQid[e.Qid]++
	}
	if byQid[1] != 51 || byQid[2] != 51 {
		t.Fatalf("per-query event counts = %v, want 51 each", byQid)
	}

	var buf bytes.Buffer
	if err := root.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("multi-query trace does not validate: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"rasql"`, `"rasql query 2"`, `"pid":2`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome output missing %s", want)
		}
	}
}

// TestValidateChromePerTrack checks that validation state is per (pid, tid)
// track: interleavings that are legal across queries stay legal, while the
// same shapes on one track still fail.
func TestValidateChromePerTrack(t *testing.T) {
	// Query 2's span opens inside query 1's and outlives it; timestamps
	// rewind between pids. Legal: the tracks are independent.
	ok := `[{"name":"a","ph":"B","pid":1,"tid":0,"ts":10},
	        {"name":"b","ph":"B","pid":2,"tid":0,"ts":5},
	        {"name":"a","ph":"E","pid":1,"tid":0,"ts":20},
	        {"name":"b","ph":"E","pid":2,"tid":0,"ts":30}]`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("cross-pid interleaving rejected: %v", err)
	}
	// Same interleaving with one pid: mismatched nesting on a single track.
	bad := `[{"name":"a","ph":"B","pid":1,"tid":0,"ts":10},
	         {"name":"b","ph":"B","pid":1,"tid":0,"ts":15},
	         {"name":"a","ph":"E","pid":1,"tid":0,"ts":20},
	         {"name":"b","ph":"E","pid":1,"tid":0,"ts":30}]`
	if err := ValidateChrome([]byte(bad)); err == nil {
		t.Error("mismatched nesting on one track validated but should not have")
	}
	// Unclosed span diagnostics name the track.
	unclosed := `[{"name":"a","ph":"B","pid":3,"tid":7,"ts":1}]`
	err := ValidateChrome([]byte(unclosed))
	if err == nil || !strings.Contains(err.Error(), "3/7") {
		t.Errorf("unclosed-span error %v does not name track 3/7", err)
	}
}
