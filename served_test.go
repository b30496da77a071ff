package rasql_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/gen"
	"github.com/rasql/rasql-go/internal/server"
)

// TestServedShapesMatchMaterialized serves each statement shape through the
// handler, where the last statement's rows go straight into the response
// body, and compares the bytes with json.Encoder's encoding of the document
// the materialized route gives: the same statement run in process on a
// second engine over the same table, its rows as [][]any, and the response's
// own stats. Each statement is served twice, the second time from the plan
// cache (a DDL script is never cached).
func TestServedShapesMatchMaterialized(t *testing.T) {
	edges := gen.RMATDefault(20, gen.Rng(1)) // 200 weighted edges
	handler := server.New(servedEngine(edges), server.Config{}).Handler()
	oracle := servedEngine(edges)
	for _, c := range []struct{ shape, sql string }{
		{"scan", `SELECT Src, Dst, Cost FROM edge`},
		{"filtered-scan", `SELECT Dst, Cost * 2 FROM edge WHERE Src = 3 AND Cost < 50`},
		{"group-by", `SELECT Src, count(*), count(distinct Dst), sum(Cost), min(Cost), max(Cost), avg(Cost) FROM edge GROUP BY Src`},
		{"distinct", `SELECT DISTINCT Src FROM edge`},
		{"union", `SELECT Src FROM edge UNION SELECT Dst FROM edge WHERE Cost > 10`},
		{"order-limit", `SELECT Src, Dst, Cost FROM edge ORDER BY Cost DESC, Src, Dst LIMIT 7`},
		{"final-stage-count", finalTC + `SELECT count(*) FROM tc`},
		{"collect-fallback", finalSSSP + `SELECT Dst, Cost FROM path ORDER BY Cost, Dst`},
		{"empty", `SELECT Src, Cost FROM edge WHERE Src < 0`},
		{"two-statements", `SELECT count(*) FROM edge; SELECT Src, Dst FROM edge WHERE Src = 3`},
		{"ddl", `CREATE VIEW cheap(S, D, C) AS (SELECT Src, Dst, Cost FROM edge WHERE Cost < 20); SELECT D, C FROM cheap WHERE S = 3`},
	} {
		t.Run(c.shape, func(t *testing.T) {
			want, err := oracle.Exec(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			for run, cached := range []bool{false, c.shape != "ddl"} {
				got := serve(t, handler, `{"sql":`+quote(c.sql)+`}`)
				if got.Code != http.StatusOK {
					t.Fatalf("run %d: status %d: %s", run, got.Code, got.Body.Bytes())
				}
				var stats struct {
					Stats json.RawMessage `json:"stats"`
				}
				if err := json.Unmarshal(got.Body.Bytes(), &stats); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				doc := materializedDoc{Columns: []server.ColumnJSON{}, Rows: [][]any{}, Cached: cached, Stats: stats.Stats}
				for _, col := range want.Schema.Columns {
					doc.Columns = append(doc.Columns, server.ColumnJSON{Name: col.Name, Kind: col.Type.String()})
				}
				for _, r := range want.Rows {
					doc.Rows = append(doc.Rows, wireRow(r))
				}
				doc.RowCount = len(doc.Rows)
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(doc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Body.Bytes(), buf.Bytes()) {
					t.Errorf("run %d answers\n%s\nthe materialized route\n%s", run, got.Body.Bytes(), buf.Bytes())
				}
			}
		})
	}
}

// TestServedDeadlineMidScan: a statement whose deadline passes while its
// rows are going into the body answers 408 with the error document, and no
// 200 status is ever written, because the body is built in full before the
// status. The cross product of a 3,000-row table has 9 million rows, far
// more than 20 ms produce.
func TestServedDeadlineMidScan(t *testing.T) {
	tab := rasql.NewRelation("t", rasql.NewSchema(rasql.Col("A", rasql.KindInt)))
	for i := range 3000 {
		tab.Append(rasql.Row{rasql.Int(int64(i))})
	}
	handler := server.New(servedEngine(tab), server.Config{}).Handler()
	w := &statusLog{ResponseRecorder: httptest.NewRecorder()}
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"sql":"SELECT x.A, y.A FROM t x, t y","settings":{"timeout_ms":20}}`))
	handler.ServeHTTP(w, req)
	if len(w.statuses) != 1 || w.statuses[0] != http.StatusRequestTimeout {
		t.Fatalf("statuses written %v, want only %d", w.statuses, http.StatusRequestTimeout)
	}
	var reply struct {
		Error string `json:"error"`
	}
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reply); err != nil || !strings.Contains(reply.Error, "deadline exceeded") {
		t.Fatalf("body %q is not the deadline's error document (%v)", w.Body.Bytes(), err)
	}
}

// statusLog records every status a handler writes.
type statusLog struct {
	*httptest.ResponseRecorder
	statuses []int
}

func (w *statusLog) WriteHeader(status int) {
	w.statuses = append(w.statuses, status)
	w.ResponseRecorder.WriteHeader(status)
}

// materializedDoc is the /v1/query document with the rows as [][]any, as
// encoding/json writes it.
type materializedDoc struct {
	Columns  []server.ColumnJSON `json:"columns"`
	Rows     [][]any             `json:"rows"`
	RowCount int                 `json:"row_count"`
	Cached   bool                `json:"cached"`
	Stats    json.RawMessage     `json:"stats,omitempty"`
}

// wireRow is a row's cells as encoding/json is given them.
func wireRow(r rasql.Row) []any {
	out := make([]any, len(r))
	for j, v := range r {
		switch v.K {
		case rasql.KindInt:
			out[j] = v.I
		case rasql.KindFloat:
			out[j] = v.F
		case rasql.KindString:
			out[j] = v.S
		case rasql.KindBool:
			out[j] = v.I != 0
		}
	}
	return out
}

// servedEngine is a default engine over one table, named edge unless it
// has a name.
func servedEngine(tab *rasql.Relation) *rasql.Engine {
	tab = tab.Clone()
	if tab.Name == "" {
		tab.Name = "edge"
	}
	eng := rasql.New(rasql.Config{})
	eng.MustRegister(tab)
	return eng
}

// serve posts body to /v1/query through h in process.
func serve(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	return w
}

func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
