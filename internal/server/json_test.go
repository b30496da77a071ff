package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/obs"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

// materializedResponse is the response document as it was built before the
// server wrote rows itself: the rows as [][]any, for encoding/json.
type materializedResponse struct {
	Columns  []ColumnJSON    `json:"columns"`
	Rows     [][]any         `json:"rows"`
	RowCount int             `json:"row_count"`
	Cached   bool            `json:"cached"`
	Stats    *obs.QueryStats `json:"stats,omitempty"`
}

func columnsJSON(s types.Schema) []ColumnJSON {
	out := make([]ColumnJSON, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = ColumnJSON{Name: c.Name, Kind: c.Type.String()}
	}
	return out
}

func materialize(rows []types.Row) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		jr := make([]any, len(r))
		for j, v := range r {
			switch v.K {
			case types.KindInt:
				jr[j] = v.I
			case types.KindFloat:
				jr[j] = v.F
			case types.KindString:
				jr[j] = v.S
			case types.KindBool:
				jr[j] = v.I != 0
			default:
				jr[j] = nil
			}
		}
		out[i] = jr
	}
	return out
}

// written returns the bytes s sends for resp when the engine hands rows
// to the body one by one, as it does while a statement runs. The body comes
// from s's free list and goes back to it, so a later call reuses it.
func written(t *testing.T, s *Server, resp *queryResponse, rows []types.Row) []byte {
	t.Helper()
	resp.body = s.getBody()
	for _, r := range rows {
		resp.body.Row(r)
	}
	rec := httptest.NewRecorder()
	s.respond(rec, resp, http.StatusOK, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// FuzzEncodeResponse: for every finite result the streamed response is
// byte for byte what json.Encoder makes of the materialized one. The rows
// mix every kind; reps repeats them, up to about 96 KiB of rows. The four
// responses of one input share one reused body, and the seeds hold the
// doubles the whole-number path prints (±3, 2^53-1) and those it leaves to
// the shortest-digits one (-0, 2^53, 2^53+2, 1e20, 1e21).
func FuzzEncodeResponse(f *testing.F) {
	for _, c := range []struct {
		i    int64
		fl   float64
		s    string
		reps uint16
	}{
		{0, 0, "", 0},
		{math.MaxInt64, 1e-6, "<a href=\"x\">&amp;</a>", 1},
		{math.MinInt64, 9.999999e-7, "\x00\x01\x1f\b\f\n\r\t\"\\\x7f", 2},
		{math.MaxInt64 - 1, 1e21, "\u2028\u2029 line separators", 3},
		{math.MinInt64 + 1, 9.99999999e20, "\xff\xfe invalid \xc3", 4},
		{255, math.Copysign(0, -1), "é 漢字 😀 \U0010FFFF", 5},
		{256, 5e-324, strings.Repeat("x", 40000), 1},
		{-1, math.MaxFloat64, "ok", 3000},
		{1 << 53, 1e-7, "\xed\xa0\x80 surrogate", 7},
		{-(1 << 53), 123456789.125, "tab\there", 8},
		{3, 3, "whole", 2},
		{-3, -3, "whole", 2},
		{0, math.Copysign(0, -1), "negative zero", 1},
		{1<<53 - 1, 1<<53 - 1, "2^53-1", 2},
		{1 << 53, 1 << 53, "2^53", 2},
		{1<<53 + 2, 1<<53 + 2, "2^53+2", 2},
		{1e18, 1e20, "1e20", 2},
		{-1e18, 1e21, "1e21", 2},
	} {
		f.Add(c.i, c.fl, c.s, c.reps)
	}
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, reps uint16) {
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			t.Skip("encoding/json refuses non-finite doubles")
		}
		if len(s) > 1<<16 {
			t.Skip("a longer string escapes no differently, and costs the fuzzer time")
		}
		schema := types.NewSchema(types.Col(s, types.KindInt), types.Col("d<&>", types.KindFloat),
			types.Col("s", types.KindString), types.Col("b", types.KindBool), types.Col("n", types.KindNull))
		rel := relation.New("r", schema)
		base := []types.Row{
			{types.Int(i), types.Float(fl), types.Str(s), types.Bool(i%2 == 0), types.Null()},
			{types.Int(-i), types.Float(-fl), types.Str(s + s), types.Bool(i%2 != 0), types.Float(fl / 3)},
			{types.Str(s), types.Int(i / 7), types.Null(), types.Float(fl * 1e-10), types.Bool(true)},
			{},
		}
		// Up to about 96 KiB of rows: cheap enough that minimizing an
		// input stays quick.
		n := 1 + int(reps)%max(1, (96<<10)/(2*len(s)+64))
		for k := 0; k < n; k++ {
			rel.Rows = append(rel.Rows, base[k%len(base)])
		}
		stats := &obs.QueryStats{ID: uint64(reps), Iterations: i, Mode: s, Err: s}
		srv := &Server{bodies: make(chan *body, 1)}
		for _, resp := range []*queryResponse{
			{rel: rel, cached: reps%2 == 0, stats: stats},
			{rel: relation.New("empty", schema), stats: stats},
			{cached: true, stats: stats},
			{rel: rel},
		} {
			want := materializedResponse{Columns: []ColumnJSON{}, Rows: [][]any{}, Cached: resp.cached, Stats: resp.stats}
			if resp.rel != nil {
				want.Columns = columnsJSON(resp.rel.Schema)
				want.Rows = materialize(resp.rel.Rows)
				want.RowCount = len(resp.rel.Rows)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			var rows []types.Row
			if resp.rel != nil {
				rows = resp.rel.Rows
			}
			if got := written(t, srv, resp, rows); !bytes.Equal(got, buf.Bytes()) {
				at := 0
				for at < len(got) && at < buf.Len() && got[at] == buf.Bytes()[at] {
					at++
				}
				t.Fatalf("response differs from encoding/json's at byte %d of %d/%d:\n got %q\nwant %q",
					at, len(got), buf.Len(), snippet(got, at), snippet(buf.Bytes(), at))
			}
		}
	})
}

func snippet(b []byte, at int) []byte {
	return b[max(0, at-40):min(len(b), at+40)]
}

// TestNonFiniteDoublesRoundTrip: a double column holding NaN, +Inf and -Inf
// answers 200 with the three as the strings "NaN", "Infinity" and
// "-Infinity", and DecodeRelation reads them back, whether the column is
// scanned or computed.
func TestNonFiniteDoublesRoundTrip(t *testing.T) {
	schema := rasql.NewSchema(rasql.Col("Src", rasql.KindInt), rasql.Col("Cost", rasql.KindFloat))
	tab := rasql.NewRelation("t", schema)
	for i, c := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1.5} {
		tab.Append(rasql.Row{rasql.Int(int64(i)), rasql.Float(c)})
	}
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(tab)
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()

	for _, c := range []struct {
		sql  string
		want []float64
	}{
		{"SELECT Src, Cost FROM t", []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1.5}},
		{"SELECT Src, Cost - Cost FROM t", []float64{math.NaN(), math.NaN(), math.NaN(), 0}},
		{"SELECT Src, 0 - Cost FROM t", []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1.5}},
	} {
		body, _ := json.Marshal(map[string]string{"sql": c.sql})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out materializedResponse
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		derr := dec.Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			t.Fatalf("%s: status %d, decode: %v", c.sql, resp.StatusCode, derr)
		}
		rel, err := DecodeRelation("r", out.Columns, out.Rows)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(rel.Rows) != len(c.want) {
			t.Fatalf("%s: %d rows, want %d", c.sql, len(rel.Rows), len(c.want))
		}
		for i, r := range rel.Rows {
			got, want := r[1], c.want[i]
			same := got.K == types.KindFloat && (got.F == want || math.IsNaN(got.F) && math.IsNaN(want))
			if !same {
				t.Errorf("%s: row %d Cost = %v, want %v", c.sql, i, got, want)
			}
		}
	}
}
