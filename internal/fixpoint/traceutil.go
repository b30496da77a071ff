package fixpoint

import (
	"github.com/rasql/rasql-go/internal/cluster"
	"github.com/rasql/rasql-go/internal/trace"
)

// This file adapts the evaluators' internal state to trace.IterationEvent.
// Everything here is driver-side and runs only when a tracer is attached;
// the evaluators guard each call with Tracer.Enabled() so the disabled path
// never pays for the telemetry.

// shuffleMark snapshots the cluster shuffle counters so an iteration's
// shuffle volume can be reported as a delta rather than a running total.
type shuffleMark struct{ bytes, recs int64 }

func markShuffle(c *cluster.QueryContext) shuffleMark {
	return shuffleMark{
		bytes: c.Metrics.ShuffleBytes.Load(),
		recs:  c.Metrics.ShuffleRecords.Load(),
	}
}

// localIterEvent summarizes the single-threaded evaluator's frontier: the
// per-view deltas just produced and the accumulated state size.
func localIterEvent(mode string, views []*localView) trace.IterationEvent {
	ev := trace.IterationEvent{Mode: mode, AllRows: totalRows(views)}
	for _, lv := range views {
		for _, d := range lv.delta {
			ev.DeltaRows++
			if d.isNew {
				ev.NewKeys++
			} else {
				ev.Improved++
			}
		}
	}
	return ev
}

func countDelta(d deltaBatch) (rows, news, improved int) {
	rows = len(d.Rows)
	if d.News == nil {
		return rows, rows, 0
	}
	for _, n := range d.News {
		if n {
			news++
		} else {
			improved++
		}
	}
	return rows, news, improved
}
