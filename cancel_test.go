package rasql_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/queries"
)

// TestCancelAllEvaluatorModes proves the context threads from the public
// API into every evaluator's iteration loop: a pre-cancelled context, and a
// deadline that expires during the iterations, make each mode — local
// semi-naive, local naive, BSP two-stage, BSP combined, decomposed, SSP(k)
// and async, plus BSP and async under injected task failures — stop at an
// iteration boundary with an ErrFixpointCancelled that unwraps to the
// context's error.
//
// It is also the goroutine-baseline check for the engine: after every run,
// completed or cancelled, the goroutine count must fall back to its
// pre-query value, so no stage worker, relaxed worker or retry path may
// outlive the query that started it.
func TestCancelAllEvaluatorModes(t *testing.T) {
	ssp1 := rasql.Config{}
	ssp1.Fixpoint.Mode, ssp1.Fixpoint.Staleness = mustMode(t, "ssp:1")
	async := rasql.Config{}
	async.Fixpoint.Mode, async.Fixpoint.Staleness = mustMode(t, "async")
	chaos := rasql.ChaosConfig{Seed: 7, Rate: 0.2}
	bspChaos := rasql.Config{}
	bspChaos.Cluster.Chaos = chaos
	asyncChaos := async
	asyncChaos.Cluster.Chaos = chaos

	modes := []struct {
		name  string
		cfg   rasql.Config
		query string
	}{
		{"local", rasql.Config{ForceLocal: true}, queries.SSSP},
		{"local-naive", naiveConfig(), queries.SSSP},
		// SSSP co-partitions: default config runs the combined (Algorithm 6)
		// loop, RawOptimizations leaves stage combination off (Algorithm 4/5).
		{"bsp-combined", rasql.Config{}, queries.SSSP},
		{"bsp-two-stage", rasql.Config{RawOptimizations: true}, queries.SSSP},
		// TC carries its Src column, so the default config decomposes it.
		{"decomposed", rasql.Config{}, queries.TC},
		{"ssp1", ssp1, queries.SSSP},
		{"async", async, queries.SSSP},
		{"bsp-chaos", bspChaos, queries.SSSP},
		{"async-chaos", asyncChaos, queries.SSSP},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			eng := rasql.New(m.cfg)
			eng.MustRegister(weightedEdges())

			// Sanity: the query runs in this mode without a context.
			base := runtime.NumGoroutine()
			if _, err := eng.Exec(m.query); err != nil {
				t.Fatalf("uncancelled run: %v", err)
			}
			waitForGoroutines(t, "uncancelled run", base)
			if m.cfg.Cluster.Chaos.Enabled() && eng.Metrics().TaskRetries == 0 {
				t.Error("chaos run injected no task failures")
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			base = runtime.NumGoroutine()
			_, err := eng.ExecContext(ctx, m.query)
			if err == nil {
				t.Fatal("pre-cancelled context: query succeeded, want cancellation error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error does not unwrap to context.Canceled: %v", err)
			}
			var fc *rasql.ErrFixpointCancelled
			if !errors.As(err, &fc) {
				t.Errorf("error is not an ErrFixpointCancelled: %v", err)
			}
			waitForGoroutines(t, "pre-cancelled run", base)

			long := rasql.New(m.cfg)
			long.MustRegister(chainEdges(30000))
			cancelMidRun(t, long, m.query)
		})
	}
}

// chainEdges is the weighted chain 1→2→…→n: SSSP and TC on it run n-1
// iterations, far more than any mid-run deadline below lets finish.
func chainEdges(n int64) *rasql.Relation {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt), rasql.Col("Cost", rasql.KindFloat))
	e := rasql.NewRelation("edge", schema)
	for i := int64(1); i < n; i++ {
		e.Append(rasql.Row{rasql.Int(i), rasql.Int(i + 1), rasql.Float(1)})
	}
	return e
}

// cancelMidRun runs query under a deadline that expires during the
// iterations: it must stop with an ErrFixpointCancelled carrying
// context.DeadlineExceeded after at least one iteration, and leave no
// goroutine behind. A deadline that expires before the first iteration
// (a slow host) is doubled and retried.
func cancelMidRun(t *testing.T, eng *rasql.Engine, query string) {
	t.Helper()
	for d := 20 * time.Millisecond; d <= 2*time.Second; d *= 2 {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		base := runtime.NumGoroutine()
		_, err := eng.ExecContext(ctx, query)
		cancel()
		if err == nil {
			t.Fatalf("deadline %v: query finished, want it cancelled mid-run", d)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %v: error does not unwrap to context.DeadlineExceeded: %v", d, err)
		}
		var fc *rasql.ErrFixpointCancelled
		if !errors.As(err, &fc) {
			t.Fatalf("deadline %v: error is not an ErrFixpointCancelled: %v", d, err)
		}
		waitForGoroutines(t, "mid-run cancel", base)
		if fc.Iterations > 0 {
			return
		}
	}
	t.Fatal("no deadline up to 2s expired during the iterations")
}

// waitForGoroutines fails the test, with every goroutine's stack, unless
// the goroutine count falls back to base within a few seconds.
func waitForGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines still running, %d before the query:\n%s", what, runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelDeadline checks the deadline flavour: an already-expired
// deadline surfaces as context.DeadlineExceeded through the same
// iteration-boundary mechanism.
func TestCancelDeadline(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := eng.ExecContext(ctx, queries.SSSP)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	var fc *rasql.ErrFixpointCancelled
	if !errors.As(err, &fc) {
		t.Errorf("error is not an ErrFixpointCancelled: %v", err)
	}
	if fc != nil && fc.Iterations < 0 {
		t.Errorf("negative iteration count: %d", fc.Iterations)
	}
}

// TestQueryContextCancel covers the Query (set-semantics epilogue) variant.
func TestQueryContextCancel(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(weightedEdges())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, queries.SSSP); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryContext: err = %v, want context.Canceled", err)
	}
}

func mustMode(t *testing.T, s string) (rasql.EvalMode, int) {
	t.Helper()
	m, k, err := rasql.ParseEvalMode(s)
	if err != nil {
		t.Fatalf("ParseEvalMode(%q): %v", s, err)
	}
	return m, k
}
