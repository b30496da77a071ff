package trace

import "time"

// startRef anchors a tracer's timeline. All event timestamps are nanoseconds
// since this anchor, so traces from one run share a comparable time base.
//
// These are the trace package's only wall-clock reads, the observability
// twin of the cluster metrics stopwatch: readings feed trace events and
// EXPLAIN ANALYZE rendering, never results, placement or iteration counts.
// The deterministic engine packages (held by TestSourceRules) never read
// the clock themselves — they hand data to this package.
type startRef struct{ t0 time.Time }

func startClock() startRef {
	return startRef{t0: time.Now()}
}

func (t *Tracer) sinceStart() int64 {
	return int64(time.Since(t.start.t0))
}
