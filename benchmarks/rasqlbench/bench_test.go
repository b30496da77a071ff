package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/server"
)

func testWorkloads(t *testing.T, seed int64) []workload {
	t.Helper()
	ws, err := workloads(seed, buildTables(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

func csvBytes(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	tables := buildTables(seed)
	if _, err := writeTables(dir, tables); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, tb := range tables {
		data, err := os.ReadFile(csvPath(dir, tb.name))
		if err != nil {
			t.Fatal(err)
		}
		out[tb.name] = data
	}
	return out
}

func sequence(ws []workload) []request {
	var seq []request
	for _, w := range ws {
		for client := 0; client < w.clients; client++ {
			for round := 0; round < 2; round++ {
				for i := 0; i < w.perRound; i++ {
					seq = append(seq, w.at(client, round, i))
				}
			}
		}
	}
	return seq
}

func TestSeedFixesInputs(t *testing.T) {
	a, b, other := csvBytes(t, 7), csvBytes(t, 7), csvBytes(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed wrote different CSV files")
	}
	for _, name := range []string{"cc_edge", "out_edge", "mix_edge"} {
		if string(a[name]) == string(other[name]) {
			t.Errorf("%s is the same for seeds 7 and 8", name)
		}
	}
	if !reflect.DeepEqual(sequence(testWorkloads(t, 7)), sequence(testWorkloads(t, 7))) {
		t.Error("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(sequence(testWorkloads(t, 7)), sequence(testWorkloads(t, 8))) {
		t.Error("seeds 7 and 8 gave the same request sequences")
	}
}

func TestShortMixShares(t *testing.T) {
	in16 := map[byte]int{}
	for _, c := range mixPeriod {
		in16[c]++
	}
	if want := map[byte]int{classA: 8, classB: 3, classC: 4, classD: 1}; !reflect.DeepEqual(in16, want) {
		t.Errorf("rotation has %v per 16 requests, want %v", in16, want)
	}
	mix := testWorkloads(t, 1)[3]
	if mix.name != "short-mix" || mix.perRound%mixDDLEvery != 0 {
		t.Fatalf("fourth workload is %s with %d requests per round", mix.name, mix.perRound)
	}
	for client := 0; client < mix.clients; client++ {
		got := map[byte]int{}
		for i := 0; i < mix.perRound; i++ {
			got[mix.at(client, 0, i).class]++
		}
		cycles := mix.perRound / mixDDLEvery
		// Per 256 requests the rotation gives 128 A, 48 B, 64 C and 16 D;
		// the CREATE VIEW takes the place of the last C.
		want := map[byte]int{classA: 128 * cycles, classB: 48 * cycles, classC: 63 * cycles, classD: 16 * cycles, classV: cycles}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("client %d sends %v per round, want %v", client, got, want)
		}
	}
}

func TestShortMixStatements(t *testing.T) {
	mix := testWorkloads(t, 1)[3]
	literals := map[string]bool{}
	owner := map[string]int{}
	inRounds := map[string]bool{}
	for client := 0; client < mix.clients; client++ {
		for round := checkRounds[0]; round < 3; round++ {
			for i := 0; i < mix.perRound; i++ {
				r := mix.at(client, round, i)
				inRounds[r.key] = true
				switch r.class {
				case classB:
					if literals[r.sql] {
						t.Fatalf("class B statement repeats: %s", r.sql)
					}
					literals[r.sql] = true
				case classA, classC:
					if c, seen := owner[r.sql]; seen && c != client {
						t.Fatalf("clients %d and %d both send %s", c, client, r.sql)
					}
					owner[r.sql] = client
				}
			}
		}
	}
	if len(owner) != 64+8 {
		t.Errorf("%d distinct class A and C statements, want 72", len(owner))
	}
	for pass := range checkRounds {
		checked := map[string]bool{}
		for _, r := range mix.checkRequests(pass) {
			checked[r.key] = true
		}
		if !reflect.DeepEqual(checked, inRounds) {
			t.Errorf("check %d covers %d answers, the rounds have %d", pass, len(checked), len(inRounds))
		}
	}
}

func TestPercentileIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 0.90, 89}, {100, 0.50, 49}, {250, 0.90, 224}, {8000, 0.90, 7199}, {1, 0.90, 0}, {3, 0.5, 1},
	} {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// The timed rounds of the shortest run have at least 100 samples between
	// them, so ten or more lie beyond the p90 taken over all of them.
	for _, w := range testWorkloads(t, 1) {
		n := timedRounds(0) * w.clients * w.perRound
		if beyond := n - 1 - percentileIndex(n, 0.90); beyond < 10 {
			t.Errorf("%s: %d samples beyond p90 of %d", w.name, beyond, n)
		}
	}
	samples := []float64{5, 1, 4, 2, 3}
	if got := percentile(samples, 0.5); got != 3 {
		t.Errorf("p50 of 1..5 = %v", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of four = %v", got)
	}
	// The host reference at its nominal time leaves every time as measured.
	nominal := []float64{hostRefNominalMS, hostRefNominalMS, hostRefNominalMS}
	s := &served{setupS: []float64{0.3, 0.1, 0.2}, setupMS: nominal, rssMB: []float64{44, 40, 36}}
	for _, p50 := range []float64{12, 10, 50, 11, 13} {
		s.rounds = append(s.rounds, roundResult{latencyMS: []float64{p50 / 2, p50, 2 * p50}, refMS: nominal, p50ms: p50, qps: 1000 / p50, cpuMSPerReq: p50 / 2})
	}
	// Fifteen latencies pooled: rank ceil(13.5) is the 14th, below only 100.
	if got := s.p90MS(); got != 50 {
		t.Errorf("p90 over all rounds = %v, want 50", got)
	}
	got := map[string]float64{}
	for _, m := range s.endToEnd(memDelta{mallocs: 7, allocKB: 3}) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"latency_p50_ms": 12, "throughput_qps": 1000.0 / 12, "cpu_ms_per_query": 6,
		"allocs_per_query": 7, "alloc_kb_per_query": 3, "rss_mb": 40, "setup_s": 0.2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("endToEnd = %v, want %v", got, want)
	}
	// On a host where the reference takes twice as long, set-up and the
	// pooled percentile are reported at half of what was measured.
	slow := []float64{3 * hostRefNominalMS, 2 * hostRefNominalMS, hostRefNominalMS}
	s.setupMS = slow
	for i := range s.rounds {
		s.rounds[i].refMS = slow
	}
	if got := s.p90MS(); got != 25 {
		t.Errorf("p90 on a host half as fast = %v, want 25", got)
	}
	for _, m := range s.endToEnd(memDelta{}) {
		if m.name == "setup_s" && m.value != 0.1 {
			t.Errorf("setup_s on a host half as fast = %v, want 0.1", m.value)
		}
	}
}

// TestHostRef holds the reference's work fixed (a change to it rescales every
// time metric) and every workload's round to whole slices.
func TestHostRef(t *testing.T) {
	if got := refComponents(); got != refComponentsResult {
		t.Errorf("refComponents() = %d, want %d: the reference's work changed", got, refComponentsResult)
	}
	if got := hostSpeed([]float64{30, 50, 40}); got != 40/hostRefNominalMS {
		t.Errorf("hostSpeed = %v, want %v", got, 40/hostRefNominalMS)
	}
	for _, w := range testWorkloads(t, 1) {
		if w.perSlice < 1 || w.perRound%w.perSlice != 0 {
			t.Errorf("%s: %d requests per slice do not divide %d per round", w.name, w.perSlice, w.perRound)
		}
	}
}

func TestTimedRounds(t *testing.T) {
	for seconds, want := range map[int]int{0: 6, 1: 6, 7: 6, 12: 6, 15: 7, 20: 10, 30: 15, 60: 30} {
		if got := timedRounds(seconds); got != want {
			t.Errorf("timedRounds(%d) = %d, want %d", seconds, got, want)
		}
	}
}

// TestDefaults holds the one engine default the benchmark repeats, the plan
// cache's capacity, to what server.New gives a zero Config, which is what
// rasqld passes when -plan-cache is left alone.
func TestDefaults(t *testing.T) {
	eng := rasql.New(rasql.Config{})
	prep, err := eng.Prepare("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	cache := server.New(eng, server.Config{}).Cache()
	for i := 0; i < 2*planCacheCapacity; i++ {
		cache.Put(strconv.Itoa(i), prep)
	}
	if cache.Len() != planCacheCapacity {
		t.Errorf("a default server's plan cache holds %d plans, planCacheCapacity is %d", cache.Len(), planCacheCapacity)
	}
}

func TestIQRShare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := iqrShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses; utime 1234, stime 66 ticks.
	fixture := []byte("4242 (ras) qld (x) S 1 4242 4242 0 -1 4194560 9 0 0 0 1234 66 0 0 20 0 9 0 100 1 2 3\n")
	got, err := parseProcStatCPU(fixture)
	if err != nil || got != 13.0 {
		t.Errorf("parseProcStatCPU = %v, %v, want 13", got, err)
	}
	if _, err := parseProcStatCPU([]byte("4242 (rasqld) S 1")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := []byte("Name:\trasqld\nVmPeak:\t 1750764 kB\nVmHWM:\t   52364 kB\nVmRSS:\t   40000 kB\n")
	kb, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || kb != 52364 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key parsed")
	}
}

func TestSelfTimes(t *testing.T) {
	times := map[string]float64{
		"request": 100, "server.handler": 90, "server.normalize": 2, "engine.exec_prepared": 70,
		"fixpoint.distributed": 50, "fixpoint.plan": 5, "sql.exec_final": 15,
	}
	want := map[string]float64{
		"request": 10, "server.handler": 18, "server.normalize": 2, "engine.exec_prepared": 5,
		"fixpoint.distributed": 45, "fixpoint.plan": 5, "sql.exec_final": 15,
	}
	if got := selfTimes(times, spanParents); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	// Only class B compiles on the request path.
	ct := &classTrace{class: classA, ns: map[string]float64{"server.handler": 10, "engine.prepare": 4, "engine.exec_prepared": 3}}
	if got := selfTimes(onPath(ct), spanParents)["server.handler"]; got != 7 {
		t.Errorf("class A handler self = %v, want 7", got)
	}
	ct.class = classB
	if got := selfTimes(onPath(ct), spanParents)["server.handler"]; got != 3 {
		t.Errorf("class B handler self = %v, want 3", got)
	}
}

func TestSimulatePlanCache(t *testing.T) {
	q := func(sql string) request { return request{class: classQ, sql: sql} }
	ddl := request{class: classV, sql: "create"}
	// Capacity 2: a b a c (evicts b) b (evicts a) ddl (drops c, b) a.
	got := simulatePlanCache([]request{q("a"), q("b"), q("a"), q("c"), q("b"), ddl, q("a")}, 2)
	if want := (planCacheCounts{hits: 1, misses: 6, evictions: 4}); got != want {
		t.Errorf("simulatePlanCache = %+v, want %+v", got, want)
	}
}

func TestParseAnswer(t *testing.T) {
	body := func(rows, cached, iters string) []byte {
		return []byte(`{"columns":[{"name":"n","kind":"int"}],"rows":` + rows + `,"row_count":1,"cached":` + cached +
			`,"stats":{"id":9,"wall_nanos":123,"iterations":` + iters + `,"shuffle_bytes":0}}` + "\n")
	}
	a, err := parseAnswer(body("[[42]]", "true", "40"))
	if err != nil || !a.cached || a.iterations != 40 {
		t.Fatalf("parseAnswer = %+v, %v", a, err)
	}
	same, _ := parseAnswer(body("[[42]]", "false", "40"))
	if same.sum != a.sum || same.cached {
		t.Errorf("cached changed the checksum or was misread: %+v vs %+v", same, a)
	}
	other, _ := parseAnswer(body("[[43]]", "true", "40"))
	if other.sum == a.sum {
		t.Error("different rows, same checksum")
	}
	if _, err := parseAnswer([]byte(`{"error":"boom"}`)); err == nil {
		t.Error("an error body parsed")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var file struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []spec
		EndToEnd   []spec `json:"end_to_end"`
		PerLayer   []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds is %d, the request counts are sized for %d", file.RunSeconds, nominalSeconds)
	}
	var want []spec
	for _, w := range testWorkloads(t, 1) {
		want = append(want, spec{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(file.Workloads, want) {
		t.Errorf("workloads:\n got %+v\nwant %+v", file.Workloads, want)
	}
	want = nil
	for _, m := range endToEndSpec {
		want = append(want, spec{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	if !reflect.DeepEqual(file.EndToEnd, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", file.EndToEnd, want)
	}
	empty := &layered{counts: &counted{}}
	layer := empty.metrics()
	if len(file.PerLayer) != len(layer) {
		t.Fatalf("per_layer has %d metrics, the traced pass reports %d", len(file.PerLayer), len(layer))
	}
	for i, m := range layer {
		if got := file.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("per_layer[%d] = %+v, the traced pass reports %s in %s", i, got, m.name, m.unit)
		}
	}
}
