package main

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"

	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/relation"
)

// table is one base table of the benchmark catalog. Every rasqld child and
// the in-process pass load all of them, whichever workload they serve, so the
// resident heap (and with it Go's GC pacing) is the same for every workload.
type table struct {
	name   string
	schema string // the -table flag's schema text
	rel    *relation.Relation
}

const (
	plainSchema    = "Src int,Dst int"
	weightedSchema = "Src int,Dst int,Cost double"
)

// buildTables generates the full catalog from the seed. The grid is the same
// for every seed (its weights are dropped); the three RMAT tables change with
// it.
func buildTables(seed int64) []table {
	named := func(name string, rel *relation.Relation) *relation.Relation {
		rel.Name = name
		return rel
	}
	rmat2k := gen.RMATDefault(2000, gen.Rng(seed))
	return []table{
		{"cc_edge", plainSchema, named("cc_edge", gen.Symmetrized(gen.Unweighted(rmat2k)))},
		{"grid_edge", plainSchema, named("grid_edge", gen.Unweighted(gen.Grid(20, gen.Rng(seed))))},
		{"out_edge", weightedSchema, named("out_edge", rmat2k)},
		{"mix_edge", weightedSchema, named("mix_edge", gen.RMATDefault(200, gen.Rng(seed)))},
	}
}

func tableNamed(tables []table, name string) table {
	for _, t := range tables {
		if t.name == name {
			return t
		}
	}
	panic("no table " + name)
}

func csvPath(dir, table string) string { return filepath.Join(dir, table+".csv") }

// writeTables writes every table as <dir>/<name>.csv and returns the -table
// flags that make rasqld load them.
func writeTables(dir string, tables []table) ([]string, error) {
	var flags []string
	for _, t := range tables {
		path := csvPath(dir, t.name)
		if err := relation.WriteCSVFile(path, t.rel, ','); err != nil {
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		flags = append(flags, "-table", t.name+"="+path+":"+t.schema)
	}
	return flags, nil
}

// Statement texts: the internal/bench queries with the table renamed.
const (
	sqlCC      = `WITH recursive cc(Src, min() AS CmpId) AS (SELECT Src, Src FROM cc_edge) UNION (SELECT cc_edge.Dst, cc.CmpId FROM cc, cc_edge WHERE cc.Src = cc_edge.Src) SELECT count(distinct cc.CmpId) FROM cc`
	sqlTC      = `WITH recursive tc(Src, Dst) AS (SELECT Src, Dst FROM grid_edge) UNION (SELECT tc.Src, grid_edge.Dst FROM tc, grid_edge WHERE tc.Dst = grid_edge.Src) SELECT count(*) FROM tc`
	sqlRowsOut = `SELECT Src, Dst, Cost FROM out_edge`
	sqlMixD    = `SELECT count(*), min(Cost), max(Cost) FROM mix_edge`
	sqlMixView = `CREATE VIEW mix_hot (Src, N) AS (SELECT Src, count(*) FROM mix_edge GROUP BY Src)`
)

func sqlMixA(src int64) string {
	return fmt.Sprintf(`SELECT count(*) FROM mix_edge WHERE Src = %d`, src)
}

// sqlMixB takes a literal index that never repeats within a run, so the
// statement always misses the plan cache. Costs are whole numbers, so every
// literal in (50, 51) selects the same rows.
func sqlMixB(src int64, lit int) string {
	return fmt.Sprintf(`SELECT Dst, Cost FROM mix_edge WHERE Src = %d AND Cost < %.7f`, src, 50+float64(lit)*1e-7)
}

func sqlMixC(source int64) string {
	return fmt.Sprintf(`WITH recursive reach(Dst) AS (SELECT %d) UNION (SELECT mix_edge.Dst FROM reach, mix_edge WHERE reach.Dst = mix_edge.Src) SELECT count(*) FROM reach`, source)
}

// Request classes. The three fixpoint-or-scan workloads have one statement,
// class Q; short-mix has A (plan-cache hit), B (miss and compile), C (short
// recursion), D (aggregate scan) and V (CREATE VIEW, the write).
const (
	classQ = 'Q'
	classA = 'A'
	classB = 'B'
	classC = 'C'
	classD = 'D'
	classV = 'V'
)

// request is one statement a client sends. key names what the answer must
// equal: requests with the same key have the same rows.
type request struct {
	class byte
	key   string
	sql   string
}

// workload is one traffic mix. Names are permanent: results of different
// commits are compared by them.
type workload struct {
	name    string
	why     string
	table   string // the table its statements read
	clients int
	// perRound is the requests per client per round, the same on every
	// commit, sized so that a round takes about two seconds, the host
	// reference between its slices included.
	perRound int
	// perSlice is the requests per client between two runs of the host
	// reference: about 70 ms of them. It divides perRound.
	perSlice int
	// shuffles says whether the workload's statements move rows through the
	// shuffle. The counting pass holds the workload to it: a workload whose
	// plan changed sides no longer isolates what its name says.
	shuffles bool
	// at returns the request a client sends at the given index of the given
	// round. It is a pure function of the seed the workload was built with.
	at func(client, round, i int) request
}

// mixPeriod is short-mix's rotation: 8 A, 3 B, 4 C, 1 D per 16 requests,
// spread so that no two neighbours share a class more than the shares force.
var mixPeriod = [16]byte{
	classA, classC, classA, classB, classA, classC, classA, classD,
	classA, classB, classA, classC, classA, classB, classA, classC,
}

// mixDDLEvery replaces every 256th request of a client with CREATE VIEW.
const mixDDLEvery = 256

// checkRounds are the round numbers of the two correctness checks outside the
// timed rounds (before and after); giving them rounds of their own keeps
// class B literals unrepeated.
var checkRounds = [2]int{-2, -1}

// mixKeys holds the values short-mix statements are built from: 64 Src values
// for classes A and B and 8 sources for class C, split evenly between the two
// clients so that a statement is only ever compiled by one of them and
// plan-cache hits and misses do not depend on how the clients interleave.
type mixKeys struct {
	srcs    [64]int64
	sources [8]int64
}

// newMixKeys takes the values from the seed's graph. The sources are the
// eight vertices with the most outgoing edges: on an RMAT graph those lie in
// the large connected part, so every seed's reachability statements walk a
// set of much the same size, where a source drawn at random reaches three
// vertices on one seed and most of the graph on the next. The Src values are
// drawn from the other vertices that have edges.
func newMixKeys(seed int64, mix *relation.Relation) (mixKeys, error) {
	degree := map[int64]int{}
	for _, r := range mix.Rows {
		degree[r[0].I]++
	}
	withEdges := make([]int64, 0, len(degree))
	for v := range degree {
		withEdges = append(withEdges, v)
	}
	slices.SortFunc(withEdges, func(a, b int64) int {
		return cmp.Or(cmp.Compare(degree[b], degree[a]), cmp.Compare(a, b))
	})
	var k mixKeys
	if len(withEdges) < len(k.srcs)+len(k.sources) {
		return k, fmt.Errorf("mix_edge has %d vertices with edges, short-mix needs %d", len(withEdges), len(k.srcs)+len(k.sources))
	}
	rest := withEdges[copy(k.sources[:], withEdges):]
	rng := gen.Rng(seed + 1)
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	copy(k.srcs[:], rest)
	return k, nil
}

func (k mixKeys) at(client, round, i, clients, perRound int) request {
	if i%mixDDLEvery == mixDDLEvery-1 {
		return request{class: classV, key: "V", sql: sqlMixView}
	}
	// n counts this client's requests of the class so far in the round, so
	// each client cycles through its own half of the values.
	period, slot := i/len(mixPeriod), i%len(mixPeriod)
	n := 0
	for _, c := range mixPeriod[:slot] {
		if c == mixPeriod[slot] {
			n++
		}
	}
	switch mixPeriod[slot] {
	case classA:
		src := k.srcs[client*32+(period*8+n)%32]
		return request{class: classA, key: fmt.Sprintf("A%d", src), sql: sqlMixA(src)}
	case classB:
		src := k.srcs[client*32+(period*3+n)%32]
		lit := ((round-checkRounds[0])*clients+client)*perRound + i
		return request{class: classB, key: fmt.Sprintf("B%d", src), sql: sqlMixB(src, lit)}
	case classC:
		source := k.sources[client*4+(period*4+n)%4]
		return request{class: classC, key: fmt.Sprintf("C%d", source), sql: sqlMixC(source)}
	default:
		return request{class: classD, key: "D", sql: sqlMixD}
	}
}

// workloads builds the four workloads for a seed, in the order a round visits
// them.
func workloads(seed int64, tables []table) ([]workload, error) {
	single := func(key, sql string) func(int, int, int) request {
		return func(int, int, int) request { return request{class: classQ, key: key, sql: sql} }
	}
	keys, err := newMixKeys(seed, tableNamed(tables, "mix_edge").rel)
	if err != nil {
		return nil, err
	}
	const mixClients, mixPerRound = 2, 3 * mixDDLEvery
	return []workload{
		{
			name:  "cc-rmat",
			why:   "connected components on a 40K-row RMAT graph: 4 wide iterations, so time sits in shuffle encode/decode, AggRDD merge and the join kernel",
			table: "cc_edge", clients: 1, perRound: 20, perSlice: 1, shuffles: true, at: single("cc", sqlCC),
		},
		{
			name:  "tc-grid",
			why:   "transitive closure of a 21x21 grid: 40 iterations, set semantics, broadcast join and no shuffle, so stage launch and barriers are a third of the time",
			table: "grid_edge", clients: 1, perRound: 30, perSlice: 2, at: single("tc", sqlTC),
		},
		{
			name:  "rows-out",
			why:   "plain scan returning 20K rows as 263 KB of JSON: bypasses the fixpoint, so time sits in row encoding, encoding/json and the socket",
			table: "out_edge", clients: 1, perRound: 100, perSlice: 5, at: single("rows", sqlRowsOut),
		},
		{
			name:  "short-mix",
			why:   "2 clients, sub-millisecond statements (8 cached lookups, 3 compiles, 4 short recursions, 1 scan per 16, a CREATE VIEW every 256): per-request fixed cost dominates",
			table: "mix_edge", clients: mixClients, perRound: mixPerRound, perSlice: 48, shuffles: true,
			at: func(client, round, i int) request { return keys.at(client, round, i, mixClients, mixPerRound) },
		},
	}, nil
}

// checkRequests lists one request per distinct answer of the workload, for
// the full comparison against the oracle before (pass 0) and after (pass 1)
// the rounds.
func (w workload) checkRequests(pass int) []request {
	seen := map[string]bool{}
	var out []request
	for client := 0; client < w.clients; client++ {
		for i := 0; i < w.perRound && i < 2*mixDDLEvery; i++ {
			if r := w.at(client, checkRounds[pass], i); !seen[r.key] {
				seen[r.key] = true
				out = append(out, r)
			}
		}
	}
	return out
}
