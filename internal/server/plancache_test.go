package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/obs"
)

func testEngine(t *testing.T) *rasql.Engine {
	t.Helper()
	eng := rasql.New(rasql.Config{})
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Dst", rasql.KindInt))
	e := rasql.NewRelation("edge", schema)
	for _, p := range [][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}} {
		e.Append(rasql.Row{rasql.Int(p[0]), rasql.Int(p[1])})
	}
	eng.MustRegister(e)
	return eng
}

// TestNormalizeSQL pins down the cache-key normal form: whitespace,
// comments and keyword/identifier case fold away, while literals — the
// values that change results — never collide.
func TestNormalizeSQL(t *testing.T) {
	same := []struct {
		name string
		a, b string
	}{
		{"whitespace", "SELECT count(*) FROM edge", "SELECT   count(*)\n\tFROM  edge"},
		{"keyword-case", "SELECT count(*) FROM edge", "select count(*) from edge"},
		{"ident-case", "SELECT Src FROM edge", "select SRC from EDGE"},
		{"line-comment", "SELECT count(*) FROM edge", "SELECT count(*) -- rows\nFROM edge"},
		{"block-comment", "SELECT count(*) FROM edge", "/* head */ SELECT count(*) FROM /* mid */ edge"},
		{"string-escape", "SELECT 'it''s' FROM edge", "SELECT  'it''s'  FROM edge"},
	}
	for _, c := range same {
		t.Run("same/"+c.name, func(t *testing.T) {
			na, err := NormalizeSQL(c.a)
			if err != nil {
				t.Fatalf("NormalizeSQL(%q): %v", c.a, err)
			}
			nb, err := NormalizeSQL(c.b)
			if err != nil {
				t.Fatalf("NormalizeSQL(%q): %v", c.b, err)
			}
			if na != nb {
				t.Errorf("variants normalize differently:\n a: %q\n b: %q", na, nb)
			}
		})
	}

	distinct := []struct {
		name string
		a, b string
	}{
		{"int-literal", "SELECT Src FROM edge WHERE Src = 1", "SELECT Src FROM edge WHERE Src = 2"},
		{"string-literal", "SELECT 'a' FROM edge", "SELECT 'b' FROM edge"},
		{"string-case", "SELECT 'A' FROM edge", "SELECT 'a' FROM edge"},
		{"float-form", "SELECT Src FROM edge WHERE Src < 1.5", "SELECT Src FROM edge WHERE Src < 15"},
		{"string-vs-ident", "SELECT 'src' FROM edge", "SELECT Src FROM edge"},
	}
	for _, c := range distinct {
		t.Run("distinct/"+c.name, func(t *testing.T) {
			na, err := NormalizeSQL(c.a)
			if err != nil {
				t.Fatalf("NormalizeSQL(%q): %v", c.a, err)
			}
			nb, err := NormalizeSQL(c.b)
			if err != nil {
				t.Fatalf("NormalizeSQL(%q): %v", c.b, err)
			}
			if na == nb {
				t.Errorf("distinct statements collide on %q", na)
			}
		})
	}

	if _, err := NormalizeSQL("SELECT ? FROM"); err == nil {
		t.Error("malformed input: want lex error, got nil")
	}
}

// TestPlanCacheHitMiss exercises the LRU mechanics and the counter
// invariant hits + misses == lookups.
func TestPlanCacheHitMiss(t *testing.T) {
	eng := testEngine(t)
	reg := obs.NewRegistry()
	pc := NewPlanCache(2, reg)
	v := eng.CatalogVersion()

	norm := func(sql string) string {
		t.Helper()
		n, err := NormalizeSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	prep := func(sql string) *rasql.Prepared {
		t.Helper()
		p, err := eng.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	q1, q2, q3 := "SELECT count(*) FROM edge", "SELECT Src FROM edge", "SELECT Dst FROM edge"
	if pc.Get(norm(q1), v) != nil {
		t.Fatal("empty cache returned a plan")
	}
	pc.Put(norm(q1), prep(q1))
	if pc.Get(norm(q1), v) == nil {
		t.Fatal("cached plan not returned")
	}
	if pc.Get(norm("select COUNT(*) from EDGE -- same"), v) == nil {
		t.Error("normalized variant missed the cache")
	}

	// Capacity 2: inserting q2 then q3 evicts the LRU entry.
	pc.Put(norm(q2), prep(q2))
	pc.Get(norm(q1), v) // touch q1 so q2 is LRU
	pc.Put(norm(q3), prep(q3))
	if pc.Len() != 2 {
		t.Errorf("cache len = %d, want 2", pc.Len())
	}
	if pc.Get(norm(q2), v) != nil {
		t.Error("LRU entry survived eviction")
	}
	if pc.Get(norm(q1), v) == nil || pc.Get(norm(q3), v) == nil {
		t.Error("recently used entries were evicted")
	}

	hits := metricValue(t, reg, "rasql_plan_cache_hits_total")
	misses := metricValue(t, reg, "rasql_plan_cache_misses_total")
	const lookups = 7
	if hits+misses != lookups {
		t.Errorf("hits (%d) + misses (%d) != lookups (%d)", hits, misses, lookups)
	}
	if evs := metricValue(t, reg, "rasql_plan_cache_evictions_total"); evs != 1 {
		t.Errorf("evictions = %d, want 1", evs)
	}
	if n := metricValue(t, reg, "rasql_plan_cache_entries"); n != 2 {
		t.Errorf("entries gauge = %d, want 2", n)
	}
}

// TestPlanCacheDDLInvalidation: a DDL commit bumps the catalog version,
// which (a) makes old entries unreachable through Get, (b) lets Invalidate
// sweep them, and (c) makes ExecPrepared refuse the stale plan.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	eng := testEngine(t)
	reg := obs.NewRegistry()
	pc := NewPlanCache(8, reg)

	sql := "SELECT count(*) FROM edge"
	n, err := NormalizeSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	v0 := eng.CatalogVersion()
	p, err := eng.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	pc.Put(n, p)
	if pc.Get(n, v0) == nil {
		t.Fatal("plan not cached")
	}

	// DDL: committing a view bumps the version.
	if _, err := eng.Exec("CREATE VIEW vx(S) AS (SELECT Src FROM edge)"); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	v1 := eng.CatalogVersion()
	if v1 == v0 {
		t.Fatal("DDL did not bump the catalog version")
	}
	if pc.Get(n, v1) != nil {
		t.Error("stale plan reachable under the new catalog version")
	}
	if _, err := eng.ExecPrepared(nil, p, nil); !errors.Is(err, rasql.ErrPlanStale) {
		t.Errorf("ExecPrepared(stale plan): err = %v, want ErrPlanStale", err)
	}

	if pc.Len() != 1 {
		t.Fatalf("cache len = %d before sweep, want 1", pc.Len())
	}
	pc.Invalidate(v1)
	if pc.Len() != 0 {
		t.Errorf("cache len = %d after sweep, want 0", pc.Len())
	}
	if evs := metricValue(t, reg, "rasql_plan_cache_evictions_total"); evs != 1 {
		t.Errorf("sweep evictions = %d, want 1", evs)
	}

	// Recompiled against the new catalog, the statement caches and runs.
	p2, err := eng.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	pc.Put(n, p2)
	if pc.Get(n, v1) == nil {
		t.Error("recompiled plan not cached under the new version")
	}
	if _, err := eng.ExecPrepared(nil, p2, nil); err != nil {
		t.Errorf("ExecPrepared(fresh plan): %v", err)
	}
}

// TestPlanCacheConcurrentStress hammers one cache from parallel workers
// doing lookup-compile-put-execute while a DDL goroutine keeps bumping the
// catalog version, then asserts the counter invariant: every lookup is
// counted exactly once, as a hit or as a miss.
func TestPlanCacheConcurrentStress(t *testing.T) {
	eng := testEngine(t)
	reg := obs.NewRegistry()
	pc := NewPlanCache(4, reg)

	stmts := []string{
		"SELECT count(*) FROM edge",
		"SELECT Src FROM edge",
		"SELECT Dst FROM edge",
		"SELECT Src, count(*) FROM edge GROUP BY Src",
		"SELECT Dst, count(*) FROM edge GROUP BY Dst",
	}
	norms := make([]string, len(stmts))
	for i, s := range stmts {
		n, err := NormalizeSQL(s)
		if err != nil {
			t.Fatal(err)
		}
		norms[i] = n
	}

	const workers, iters = 8, 50
	var lookups atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)

	wg.Add(1)
	go func() { // DDL churn: each view commit bumps the catalog version
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			ddl := fmt.Sprintf("CREATE VIEW churn%d(S) AS (SELECT Src FROM edge)", i)
			if _, err := eng.Exec(ddl); err != nil {
				errCh <- fmt.Errorf("ddl %d: %w", i, err)
				return
			}
			pc.Invalidate(eng.CatalogVersion())
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(stmts)
				version := eng.CatalogVersion()
				p := pc.Get(norms[k], version)
				lookups.Add(1)
				if p == nil {
					var err error
					p, err = eng.Prepare(stmts[k])
					if err != nil {
						errCh <- fmt.Errorf("worker %d: prepare: %w", w, err)
						return
					}
					pc.Put(norms[k], p)
				}
				if _, err := eng.ExecPrepared(nil, p, nil); err != nil && !errors.Is(err, rasql.ErrPlanStale) {
					errCh <- fmt.Errorf("worker %d: exec: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	hits := metricValue(t, reg, "rasql_plan_cache_hits_total")
	misses := metricValue(t, reg, "rasql_plan_cache_misses_total")
	if hits+misses != lookups.Load() {
		t.Errorf("hits (%d) + misses (%d) != lookups (%d)", hits, misses, lookups.Load())
	}
	if misses == 0 {
		t.Error("stress run recorded no misses (DDL churn should force recompiles)")
	}
	if hits == 0 {
		t.Error("stress run recorded no hits")
	}
}

// metricValue reads one un-labelled sample of reg back through the
// exposition round-trip, the way a scrape reads it.
func metricValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not re-parse: %v", err)
	}
	if fam := fams[name]; fam != nil {
		for _, s := range fam.Samples {
			if s.Name == name && len(s.Labels) == 0 {
				return int64(s.Value)
			}
		}
	}
	t.Fatalf("sample %s not found", name)
	return 0
}
