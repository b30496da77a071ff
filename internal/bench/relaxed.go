package bench

import (
	"fmt"
	"strings"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
)

// The barrier-relaxation experiments measure the DESIGN.md §11 evaluation
// modes — SSP(k) bounded staleness and fully-asynchronous — against the BSP
// baseline, fault-free and under a rotating straggler schedule that slows
// one partition per iteration (the regime barrier relaxation targets: a BSP
// run pays every straggler on the critical path, a relaxed run overlaps it
// with the other partitions' progress). Each (mode, schedule) cell is its
// own experiment so BENCH_fixpoint.json carries per-mode sim_nanos and
// staleness counters that CI can compare.

// relaxedModes lists the compared evaluation modes: experiment-id suffix
// and the -mode flag spelling it measures.
var relaxedModes = []struct{ id, flag string }{
	{"bsp", "bsp"},
	{"ssp2", "ssp:2"},
	{"async", "async"},
}

// relaxedIDs returns the experiment ids in comparison order: the fault-free
// sweep first, then the straggler variants.
func relaxedIDs() []string {
	var ids []string
	for _, sched := range []string{"", "-straggler"} {
		for _, m := range relaxedModes {
			ids = append(ids, "relaxed-"+m.id+sched)
		}
	}
	return ids
}

func init() {
	for _, id := range relaxedIDs() {
		Order = append(Order, id)
		Commentary[id] = relaxedCommentary
	}
}

// addRelaxedExperiments registers the six (mode × schedule) cells into the
// experiment registry; Experiments calls it after the paper figures.
func (r *Runner) addRelaxedExperiments(exps map[string]func() (*Table, error)) {
	for _, m := range relaxedModes {
		m := m
		exps["relaxed-"+m.id] = func() (*Table, error) { return r.relaxedCell(m.id, m.flag, false) }
		exps["relaxed-"+m.id+"-straggler"] = func() (*Table, error) { return r.relaxedCell(m.id, m.flag, true) }
	}
}

// stragglerRounds is the length of the rotating straggler schedule — long
// enough to cover every iteration of the high-diameter grid workload.
const stragglerRounds = 256

// stragglerOps is the extra CPU each scheduled straggler really spins
// (8x the chaos default: a visibly slow executor, not a blip).
const stragglerOps = 400000

// stragglerChaos builds the rotating straggler schedule: iteration o slows
// partition o mod parts. Deterministic (no Rate), so the only difference
// between the BSP and relaxed arms is how much of the slowdown lands on the
// critical path.
func stragglerChaos(parts int) rasql.ChaosConfig {
	cfg := rasql.ChaosConfig{StragglerOps: stragglerOps}
	for o := 0; o < stragglerRounds; o++ {
		cfg.Schedule = append(cfg.Schedule, rasql.ChaosEvent{
			Occurrence: o, Part: o % parts, Kind: rasql.FaultStraggler,
		})
	}
	return cfg
}

// relaxedWorkload is one measured (query, dataset) pair.
type relaxedWorkload struct {
	label string
	query string
	rel   *relation.Relation
}

// relaxedWorkloads returns the measured workloads: a Figure 6-style grid
// SSSP whose long diameter maximizes the number of barriers a BSP run pays —
// the regime barrier relaxation targets. One workload per cell keeps each
// BENCH_fixpoint.json record a single per-mode measurement; the shallow
// skewed RMAT graphs of Figures 5/8 sit in the same JSON for contrast (there
// deltas are large and rounds few, so stale re-derivation can cost more than
// the barriers save — see the commentary).
func (r *Runner) relaxedWorkloads() []relaxedWorkload {
	k := 40
	if r.cfg.Quick {
		k = 16
	}
	grid := r.dataset(fmt.Sprintf("grid-%d", k), func() *relation.Relation {
		return gen.Grid(k, gen.Rng(r.cfg.Seed))
	})
	return []relaxedWorkload{
		{fmt.Sprintf("SSSP-Grid%d (high diameter)", k), qSSSP, grid},
	}
}

// relaxedCell runs every workload under one (mode, schedule) combination.
func (r *Runner) relaxedCell(modeID, modeFlag string, straggler bool) (*Table, error) {
	sched := "fault-free"
	if straggler {
		sched = "rotating-straggler"
	}
	t := &Table{
		ID:      "Relaxed " + modeID + "/" + sched,
		Title:   fmt.Sprintf("Barrier relaxation: %s, %s schedule", modeFlag, sched),
		Columns: []string{"workload", "mode", "schedule", "time"},
	}
	evalMode, k, err := rasql.ParseEvalMode(modeFlag)
	if err != nil {
		return nil, err
	}
	if straggler {
		saved := r.cfg.Chaos
		r.cfg.Chaos = stragglerChaos(r.cfg.Partitions)
		defer func() { r.cfg.Chaos = saved }()
	}
	r.curvePrefix = "relaxed-" + modeID
	defer func() { r.curvePrefix = "" }()
	for _, w := range r.relaxedWorkloads() {
		cfg := rasql.Config{Cluster: rasql.ClusterConfig{Workers: r.cfg.Workers, Partitions: r.cfg.Partitions}}
		cfg.Fixpoint.Mode = evalMode
		cfg.Fixpoint.Staleness = k
		dur, err := r.runQuery(cfg, w.query, w.rel)
		if err != nil {
			return nil, err
		}
		// SSSP is PreM-certified, so a relaxed run must actually be relaxed;
		// a silent BSP fallback here means the eligibility gate regressed.
		if n := len(r.curves); evalMode != rasql.ModeBSP && n > 0 {
			if m := r.curves[n-1].Mode; !strings.HasPrefix(m, "dsn-ssp") && m != "dsn-async" {
				return nil, fmt.Errorf("bench: %s fell back to %s on %s", modeFlag, m, w.label)
			}
		}
		t.Rows = append(t.Rows, []string{w.label, modeFlag, sched, fmtDur(dur)})
		r.logf("relaxed %s %s %s done", modeID, sched, w.label)
	}
	t.Notes = append(t.Notes,
		"compare sim_nanos across the relaxed-* records: relaxed modes win where stragglers or skew leave BSP barriers waiting")
	return t, nil
}

const relaxedCommentary = `**Beyond the paper:** the RaSQL paper evaluates a
BSP fixpoint only; these cells measure the DESIGN.md §11 barrier-relaxed
modes against it on the high-diameter grid SSSP, where one fixpoint pays
a barrier per grid hop (~80 rounds on Grid40). Fault-free, the three
modes land within noise of each other —
the barrier costs little when partitions progress uniformly, and the
relaxed run pays some extra work (stale deltas derive rows a barrier would
have superseded first, visible in superseded_rows). Under the rotating
straggler schedule the modes separate: BSP stalls every iteration behind
the one slowed partition (barrier_wait_nanos), while SSP(2) and async keep
the other partitions deriving, so simulated time improves and stale_reads
counts the deltas consumed past the barrier point. The effect inverts on
the shallow skewed RMAT graphs of Figures 5/8 (same JSON, fig5/fig8
records): with big deltas and few rounds, stale re-derivation costs more
than the barriers save, which is why the engine keeps BSP the default.
Results stay set-identical to BSP either way, because the relaxed modes
only run on PreM-certified (or set-semantics) cliques.`
