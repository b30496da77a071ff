package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func sampleSnapshot(seed int64) Snapshot {
	s := Snapshot{}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(seed + int64(i)*7)
	}
	return s
}

func TestSnapshotAddSubRoundtrip(t *testing.T) {
	a := sampleSnapshot(100)
	b := sampleSnapshot(3)
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", got, a)
	}
	if got := a.Sub(b).Add(b); got != a {
		t.Errorf("a.Sub(b).Add(b) = %+v, want %+v", got, a)
	}
	if got := a.Sub(a); got != (Snapshot{}) {
		t.Errorf("a.Sub(a) = %+v, want zero", got)
	}
	if got := a.Add(Snapshot{}); got != a {
		t.Errorf("a + 0 = %+v, want %+v", got, a)
	}
	// Field-by-field: Add/Sub must actually touch every counter, so a
	// future counter can't be silently dropped from the fold again. The
	// per-field deltas of sampleSnapshot are distinct, making a skipped
	// field detectable.
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	sum := reflect.ValueOf(a.Add(b))
	diff := reflect.ValueOf(a.Sub(b))
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if got, want := sum.Field(i).Int(), av.Field(i).Int()+bv.Field(i).Int(); got != want {
			t.Errorf("Add dropped %s: got %d, want %d", name, got, want)
		}
		if got, want := diff.Field(i).Int(), av.Field(i).Int()-bv.Field(i).Int(); got != want {
			t.Errorf("Sub dropped %s: got %d, want %d", name, got, want)
		}
	}
}

// TestMetricsSnapshotFieldParity pins the Metrics/Snapshot field mirror the
// reflection plumbing depends on: same names, same order, atomic.Int64
// against int64. (The package would already panic at init on divergence;
// this surfaces it as a readable test failure.)
func TestMetricsSnapshotFieldParity(t *testing.T) {
	mt := reflect.TypeOf(Metrics{})
	st := reflect.TypeOf(Snapshot{})
	if mt.NumField() != st.NumField() {
		t.Fatalf("Metrics has %d fields, Snapshot %d", mt.NumField(), st.NumField())
	}
	for i := 0; i < mt.NumField(); i++ {
		if mt.Field(i).Name != st.Field(i).Name {
			t.Errorf("field %d: Metrics.%s vs Snapshot.%s", i, mt.Field(i).Name, st.Field(i).Name)
		}
	}
	// AddSnapshot/Snapshot roundtrip across every field.
	var m Metrics
	s := sampleSnapshot(41)
	m.AddSnapshot(s)
	if got := m.Snapshot(); got != s {
		t.Errorf("AddSnapshot/Snapshot roundtrip: got %+v, want %+v", got, s)
	}
}

// TestSnapshotStringCoversAllCounters walks the struct by reflection so a
// future counter can't silently go missing from the rendering again.
func TestSnapshotStringCoversAllCounters(t *testing.T) {
	s := Snapshot{}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		// Distinct prime-ish values so each field is identifiable.
		v.Field(i).SetInt(int64(1000003 + i*17))
	}
	out := s.String()
	for i := 0; i < v.NumField(); i++ {
		want := fmt.Sprintf("%d", v.Field(i).Int())
		if !strings.Contains(out, want) {
			t.Errorf("String() omits %s (value %s): %q", v.Type().Field(i).Name, want, out)
		}
	}
}

// TestMetricsConcurrentUpdates exercises every counter from many goroutines;
// under -race this pins the atomicity of the Metrics struct, and the final
// snapshot checks no increments were lost.
func TestMetricsConcurrentUpdates(t *testing.T) {
	var m Metrics
	const goroutines, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.StagesRun.Add(1)
				m.TasksRun.Add(2)
				m.ShuffleRecords.Add(3)
				m.ShuffleBytes.Add(4)
				m.RemoteFetchBytes.Add(5)
				m.LocalFetchRows.Add(6)
				m.BroadcastBytes.Add(7)
				m.Iterations.Add(8)
				m.SimNanos.Add(9)
				m.StageWallNanos.Add(10)
				m.TaskRetries.Add(11)
				m.RowsReplayed.Add(12)
				m.RecoveredIterations.Add(13)
				m.StaleReads.Add(14)
				m.SupersededRows.Add(15)
				m.BarrierWaitNanos.Add(16)
				m.BaseReuses.Add(17)
				_ = m.Snapshot() // concurrent reads race-check the loads
			}
		}()
	}
	wg.Wait()
	got := m.Snapshot()
	n := int64(goroutines * rounds)
	want := Snapshot{
		StagesRun: n, TasksRun: 2 * n, ShuffleRecords: 3 * n, ShuffleBytes: 4 * n,
		RemoteFetchBytes: 5 * n, LocalFetchRows: 6 * n, BroadcastBytes: 7 * n,
		Iterations: 8 * n, SimNanos: 9 * n, StageWallNanos: 10 * n,
		TaskRetries: 11 * n, RowsReplayed: 12 * n, RecoveredIterations: 13 * n,
		StaleReads: 14 * n, SupersededRows: 15 * n, BarrierWaitNanos: 16 * n,
		BaseReuses: 17 * n,
	}
	if got != want {
		t.Errorf("lost updates: got %+v, want %+v", got, want)
	}
}
