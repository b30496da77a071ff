package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// chromeEvent is the subset of the trace-event schema ValidateChrome checks.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	TS   *float64 `json:"ts"`
	Dur  float64  `json:"dur"`
}

// ValidateChrome checks that data is a well-formed Chrome trace: parseable
// as {"traceEvents": [...]} or a bare event array, every event carrying a
// name, a known phase and a non-negative timestamp, timestamps monotone
// non-decreasing per track, and B/E pairs balanced with matching names.
// A track is a (pid, tid) pair: concurrent queries export as separate
// processes, so multi-query traces validate each query's spans and
// timelines independently even though the events interleave in the file.
//
// It is the oracle the tests hold every Chrome export to: this package's
// own, the engine-level exports in engine_test.go, and the files CI writes
// with rasql -trace (TestTraceFiles).
func ValidateChrome(data []byte) error {
	var wrapper struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &wrapper); err == nil && wrapper.TraceEvents != nil {
		events = wrapper.TraceEvents
	} else if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("trace: not a trace-event JSON document: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("trace: no events")
	}

	type track struct {
		pid int
		tid int
	}
	lastTS := map[track]float64{}
	stacks := map[track][]string{}
	for i, e := range events {
		where := fmt.Sprintf("event %d (%q)", i, e.Name)
		if e.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		switch e.Ph {
		case "B", "E", "X", "C", "i", "M":
		default:
			return fmt.Errorf("trace: %s has unsupported phase %q", where, e.Ph)
		}
		if e.Ph == "M" {
			continue // metadata events carry no timestamp
		}
		if e.TS == nil {
			return fmt.Errorf("trace: %s has no timestamp", where)
		}
		ts := *e.TS
		if ts < 0 {
			return fmt.Errorf("trace: %s has negative timestamp %v", where, ts)
		}
		k := track{e.Pid, e.Tid}
		if prev, ok := lastTS[k]; ok && ts < prev {
			return fmt.Errorf("trace: %s goes back in time on track %d/%d (%v < %v)", where, e.Pid, e.Tid, ts, prev)
		}
		lastTS[k] = ts
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				return fmt.Errorf("trace: %s has negative duration %v", where, e.Dur)
			}
		case "B":
			stacks[k] = append(stacks[k], e.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("trace: %s ends a span that never began on track %d/%d", where, e.Pid, e.Tid)
			}
			if top := st[len(st)-1]; top != e.Name {
				return fmt.Errorf("trace: %s ends while %q is open on track %d/%d", where, top, e.Pid, e.Tid)
			}
			stacks[k] = st[:len(st)-1]
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("trace: track %d/%d has %d unclosed span(s), first %q", k.pid, k.tid, len(st), st[0])
		}
	}
	return nil
}

// TestTraceFiles validates the Chrome trace files named, space-separated, in
// RASQL_TRACE_FILES (absolute paths: go test runs in this directory) and
// skips when it is unset. CI runs it on the traces rasql -trace writes:
//
//	RASQL_TRACE_FILES="$PWD/sssp-trace.json $PWD/tc-trace.json" go test -run TestTraceFiles ./internal/trace/
func TestTraceFiles(t *testing.T) {
	paths := strings.Fields(os.Getenv("RASQL_TRACE_FILES"))
	if len(paths) == 0 {
		t.Skip("RASQL_TRACE_FILES is unset")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateChrome(data); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
