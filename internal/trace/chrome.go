package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// WriteChrome serializes the recorded events in the Chrome trace-event JSON
// format (the one Perfetto and chrome://tracing load): an object with a
// traceEvents array, timestamps and durations in microseconds. Each query
// renders as its own named process (pid = query ID), so concurrent queries
// interleaved in one shared log stay distinguishable; within a process each
// worker renders as its own named thread track, iteration telemetry as B/E
// slices plus counter series on a dedicated track.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	out := make([]map[string]any, 0, len(events)+8)
	type track struct {
		pid int
		tid int
	}
	seenPid := map[int]bool{}
	seenTrack := map[track]bool{}
	for _, e := range events {
		pid := chromePid(e.Qid)
		if !seenPid[pid] {
			seenPid[pid] = true
			out = append(out, map[string]any{
				"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
				"args": map[string]any{"name": processName(e.Qid)},
			})
		}
		if k := (track{pid, e.Tid}); !seenTrack[k] {
			seenTrack[k] = true
			out = append(out, map[string]any{
				"name": "thread_name", "ph": "M", "pid": pid, "tid": e.Tid,
				"args": map[string]any{"name": trackName(e.Tid)},
			})
		}
	}
	for _, e := range events {
		ev := map[string]any{
			"name": e.Name,
			"ph":   string(e.Phase),
			"pid":  chromePid(e.Qid),
			"tid":  e.Tid,
			"ts":   float64(e.TS) / 1e3,
		}
		if e.Phase == 'X' {
			ev["dur"] = float64(e.Dur) / 1e3
		}
		if e.Phase == 'i' {
			ev["s"] = "t" // thread-scoped instant
		}
		if len(e.Args) > 0 {
			args := make(map[string]any, len(e.Args))
			for _, a := range e.Args {
				args[a.Key] = a.Val
			}
			ev["args"] = args
		}
		out = append(out, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}

// chromePid maps a query ID to its Chrome process id. Query 1 and the root
// handle (qid 0) share pid 1, so single-query traces keep the layout every
// existing consumer knows; later queries get their own process.
func chromePid(qid int64) int {
	if qid <= 1 {
		return 1
	}
	return int(qid)
}

// processName labels a query's process track.
func processName(qid int64) string {
	if qid <= 1 {
		return "rasql"
	}
	return "rasql query " + itoa(int(qid))
}

func trackName(tid int) string {
	switch {
	case tid == TidDriver:
		return "driver"
	case tid == TidIterations:
		return "fixpoint iterations"
	default:
		return "worker " + itoa(tid-1)
	}
}
