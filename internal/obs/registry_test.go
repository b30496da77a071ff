package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestPrometheusRoundTrip writes a populated registry and re-reads it with
// the strict parser: every family survives with its type, values and
// histogram invariants intact.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_requests_total", "Requests served.")
	g := reg.Gauge("test_inflight", "Requests in flight.")
	h := reg.Histogram("test_latency_nanos", "Latency in nanoseconds.")
	c.Add(41)
	c.Inc()
	g.Set(7)
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000)
	}
	h.Observe(-1)            // underflow
	h.Observe(math.MaxInt64) // overflow folds into +Inf

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not re-parse:\n%s\nerror: %v", buf.String(), err)
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	counter := fams["test_requests_total"]
	if counter == nil || counter.Type != "counter" || len(counter.Samples) != 1 || counter.Samples[0].Value != 42 {
		t.Errorf("counter family = %+v, want one sample of 42", counter)
	}
	gauge := fams["test_inflight"]
	if gauge == nil || gauge.Type != "gauge" || gauge.Samples[0].Value != 7 {
		t.Errorf("gauge family = %+v, want one sample of 7", gauge)
	}
	hist := fams["test_latency_nanos"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family = %+v", hist)
	}
	var count, sum, inf float64
	for _, s := range hist.Samples {
		switch {
		case s.Name == "test_latency_nanos_count":
			count = s.Value
		case s.Name == "test_latency_nanos_sum":
			sum = s.Value
		case s.Labels["le"] == "+Inf":
			inf = s.Value
		}
	}
	if count != 1002 || inf != 1002 {
		t.Errorf("count = %v, +Inf = %v, want both 1002", count, inf)
	}
	if sum == 0 {
		t.Error("sum sample missing or zero")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("re-registering dup_total did not panic")
		}
	}()
	reg.Gauge("dup_total", "second")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("registering an invalid metric name did not panic")
		}
	}()
	reg.Counter("bad name!", "spaces are not a metric name")
}

// TestHelpEscaping checks that newlines and backslashes in help text survive
// the exposition format (escaped on write, unescaped semantics on read).
func TestHelpEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "line one\nline \\two")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("escaped help does not re-parse: %v\n%s", err, buf.String())
	}
	if strings.Contains(buf.String(), "line one\nline") {
		t.Error("help newline written raw, breaks line-oriented format")
	}
}
