// Package obs is the engine's serving-grade metrics layer: lock-free
// fixed-bucket histograms, a registry of named counters/gauges/histograms
// with Prometheus text-format exposition, and the per-query QueryStats
// record every finished cluster.QueryContext folds into it.
//
// Like internal/trace, obs sits on the observability side of the host-clock
// boundary TestSourceRules draws: nothing in the engine's deterministic
// packages reads values back out of it, so its contents never influence
// results, placement or iteration counts. The hot-path surface
// (Histogram.Observe, Counter.Add) is allocation-free and wait-free — cheap
// enough to call from the query fold of every request a serving deployment
// handles.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero Counter is ready
// to use; all methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters only go
// up, and a registry scrape must never observe a decrease).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero Gauge is ready to
// use; all methods are safe for concurrent use and allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind tags a registered metric for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registry entry.
type metric struct {
	name string
	help string
	kind metricKind
	ctr  *Counter
	gau  *Gauge
	hist *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Registration takes a lock; the returned instruments
// are plain pointers the caller holds on to, so the observation fast paths
// never touch the registry again.
type Registry struct {
	mu sync.RWMutex
	// guarded by mu
	byName map[string]*metric
	// guarded by mu
	ordered []*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds m under its name, panicking on duplicates or invalid names —
// metric registration is setup code, and a typo'd duplicate silently
// shadowing a metric is exactly the failure exposition must not have.
func (r *Registry) register(m *metric) {
	if !validMetricName(m.name) {
		panic("obs: invalid metric name " + strconv.Quote(m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	r.byName[m.name] = m
	r.ordered = append(r.ordered, m)
}

// Counter registers and returns a counter. Panics if the name is taken.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, ctr: c})
	return c
}

// Gauge registers and returns a gauge. Panics if the name is taken.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gau: g})
	return g
}

// Histogram registers and returns a histogram. Panics if the name is taken.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// validMetricName enforces the Prometheus metric-name charset:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE headers, counter and
// gauge samples, and for histograms the cumulative le-labelled _bucket
// series plus _sum and _count. Metrics render in registration order;
// histogram bucket bounds render as integers in the metric's native unit
// (the unit is part of the metric name, e.g. _nanos), closed by the
// mandatory le="+Inf" bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	metrics := append([]*metric(nil), r.ordered...)
	r.mu.RUnlock()
	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, escapeHelp(m.help), m.name, m.kind); err != nil {
			return err
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.ctr.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gau.Value())
		case kindHistogram:
			err = writeHistogram(w, m.name, m.hist.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	var cum uint64
	for _, b := range s.Buckets {
		cum = b.CumulativeCount
		if b.UpperBound == math.MaxInt64 {
			continue // folded into +Inf below
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.UpperBound, b.CumulativeCount); err != nil {
			return err
		}
	}
	// The +Inf bucket is mandatory and must equal _count; it absorbs the
	// overflow bucket when one is present.
	if cum < s.Count {
		cum = s.Count
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
