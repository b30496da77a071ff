package bench

import (
	"strings"
	"testing"
	"time"
)

func quickRunner() *Runner {
	return NewRunner(Config{Quick: true, Seed: 3, Workers: 4})
}

func TestConfigDefaults(t *testing.T) {
	cfg := NewRunner(Config{}).cfg
	if cfg.Scale != 1000 || cfg.TreeScale != 256 || cfg.Repeat != 1 || cfg.Workers != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
	q := NewRunner(Config{Quick: true}).cfg
	if q.Scale != 8000 {
		t.Errorf("quick scale = %d", q.Scale)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "Figure X", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"row1", "1"}, {"longer-row", "2"}},
		Notes:   []string{"a note"},
	}
	s := tbl.String()
	for _, want := range []string{"Figure X", "longer-row", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "### Figure X") {
		t.Errorf("markdown wrong:\n%s", md)
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500µs",
		42 * time.Millisecond:   "42ms",
		1500 * time.Millisecond: "1.50s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	r := quickRunner()
	exps := r.Experiments()
	for _, id := range Order {
		if _, ok := exps[id]; !ok {
			t.Errorf("experiment %q in Order but not registered", id)
		}
	}
	if len(exps) != len(Order) {
		t.Errorf("registry has %d experiments, Order lists %d", len(exps), len(Order))
	}
}

// TestFigure1Shape runs the cheapest full experiment and validates the
// table structure and the expected ordering (stratified slower).
func TestFigure1Shape(t *testing.T) {
	r := quickRunner()
	tbl, err := r.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	labels := map[string]bool{}
	for _, row := range tbl.Rows {
		labels[row[0]] = true
	}
	for _, want := range []string{"RaSQL-SSSP", "RaSQL-CC", "Stratified-SSSP", "Stratified-CC"} {
		if !labels[want] {
			t.Errorf("missing row %q", want)
		}
	}
	// The stratified SSSP must be reported as cut (non-terminating).
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "Stratified-SSSP" && strings.Contains(row[2], "non-terminating") {
			found = true
		}
	}
	if !found {
		t.Error("stratified SSSP should be cut on a cyclic graph")
	}
}

func TestTable1Shape(t *testing.T) {
	r := quickRunner()
	tbl, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "livejournal" {
		t.Errorf("first analog = %q", tbl.Rows[0][0])
	}
}

func TestSystemsRun(t *testing.T) {
	r := quickRunner()
	edges := r.rmatFor(1, "SSSP")
	for _, sys := range []string{"rasql", "bigdatalog", "myria", "graphx", "giraph", "gap"} {
		if _, err := r.runSystem(sys, "SSSP", edges); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
	}
	if _, err := r.runSystem("nope", "SSSP", edges); err == nil {
		t.Error("unknown system should error")
	}
}

func TestCommentaryCoversEveryExperiment(t *testing.T) {
	for _, id := range Order {
		if _, ok := Commentary[id]; !ok {
			t.Errorf("experiment %q has no paper-vs-measured commentary", id)
		}
	}
	for id := range Commentary {
		found := false
		for _, o := range Order {
			if o == id {
				found = true
			}
		}
		if !found {
			t.Errorf("commentary for unknown experiment %q", id)
		}
	}
}

// TestConvergenceCurves checks that cluster-backed measurements record
// per-iteration convergence profiles and that TakeCurves drains them.
func TestConvergenceCurves(t *testing.T) {
	r := quickRunner()
	edges := r.rmatFor(1, "SSSP")
	if _, err := r.runSystem("rasql", "SSSP", edges); err != nil {
		t.Fatal(err)
	}
	if _, err := r.runSystem("rasql", "SSSP", edges); err != nil {
		t.Fatal(err)
	}
	curves := r.TakeCurves()
	if len(curves) != 2 {
		t.Fatalf("curves = %d, want 2", len(curves))
	}
	c := curves[0]
	if !strings.HasPrefix(c.Label, "rasql:") || c.Mode == "" || len(c.Points) == 0 {
		t.Fatalf("malformed curve: %+v", c)
	}
	if curves[1].Label != c.Label+"#2" {
		t.Errorf("duplicate label not disambiguated: %q vs %q", c.Label, curves[1].Label)
	}
	last := c.Points[len(c.Points)-1]
	if last.DeltaRows != 0 {
		t.Errorf("converged curve should end with an empty delta, got %d", last.DeltaRows)
	}
	if last.AllRows == 0 {
		t.Error("final relation size missing from curve")
	}
	if r.TakeCurves() != nil {
		t.Error("TakeCurves did not reset the accumulator")
	}
}

// TestRelaxedStragglerCells runs the straggler arms of the barrier-relaxation
// comparison and checks the structural claim behind them: with a rotating
// straggler slowing one partition per iteration, SSP(2) spends no more
// simulated time than BSP, and the staleness counters attribute the
// difference (BSP idles at barriers, the relaxed run reads stale deltas).
func TestRelaxedStragglerCells(t *testing.T) {
	r := quickRunner()
	exps := r.Experiments()
	tbl, err := exps["relaxed-bsp-straggler"]()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 workload", len(tbl.Rows))
	}
	bsp := r.TakeTotals()
	r.TakeCurves()
	if _, err := exps["relaxed-ssp2-straggler"](); err != nil {
		t.Fatal(err)
	}
	ssp := r.TakeTotals()
	if ssp.SimNanos > bsp.SimNanos {
		t.Errorf("ssp:2 sim time %d > bsp %d under the straggler schedule", ssp.SimNanos, bsp.SimNanos)
	}
	if bsp.BarrierWaitNanos == 0 {
		t.Error("bsp arm recorded no barrier wait")
	}
	if bsp.StaleReads != 0 || bsp.SupersededRows != 0 {
		t.Errorf("bsp arm recorded staleness telemetry: stale=%d superseded=%d",
			bsp.StaleReads, bsp.SupersededRows)
	}
	if ssp.StaleReads == 0 && ssp.SupersededRows == 0 {
		t.Error("relaxed arm recorded no staleness telemetry")
	}
	curves := r.TakeCurves()
	if len(curves) == 0 {
		t.Fatal("no convergence curves recorded")
	}
	for _, c := range curves {
		if c.Mode != "dsn-ssp(2)" {
			t.Errorf("curve %s mode = %q, want dsn-ssp(2)", c.Label, c.Mode)
		}
		if !strings.HasPrefix(c.Label, "relaxed-ssp2:") {
			t.Errorf("curve label %q missing experiment prefix", c.Label)
		}
	}
}

func TestRecViewName(t *testing.T) {
	cases := map[string]string{
		"WITH recursive path (Dst, min() AS Cost) AS ...": "path",
		"with RECURSIVE cc(X, min() as C) as (...)":       "cc",
		"SELECT 1": "query",
	}
	for q, want := range cases {
		if got := recViewName(q); got != want {
			t.Errorf("recViewName(%q) = %q, want %q", q, got, want)
		}
	}
}
