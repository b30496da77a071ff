package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	rasql "github.com/rasql/rasql-go"
	"github.com/rasql/rasql-go/internal/cli"
	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/server"
)

// loadEngine registers the CSV files the -table flags name on a new engine,
// the way rasqld does.
func loadEngine(cfg rasql.Config, tableFlags []string) (*rasql.Engine, error) {
	eng := rasql.New(cfg)
	var specs []string
	for i := 1; i < len(tableFlags); i += 2 {
		specs = append(specs, tableFlags[i])
	}
	if err := cli.LoadTables(eng, specs); err != nil {
		return nil, err
	}
	return eng, nil
}

// oracle answers statements with the single-threaded reference evaluator
// over the same CSV files rasqld loads.
type oracle struct{ eng *rasql.Engine }

func newOracle(tableFlags []string) (*oracle, error) {
	eng, err := loadEngine(rasql.Config{ForceLocal: true}, tableFlags)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{eng}, nil
}

// fullResponse is a /v1/query response decoded in full.
type fullResponse struct {
	Columns  []server.ColumnJSON `json:"columns"`
	Rows     [][]any             `json:"rows"`
	RowCount int                 `json:"row_count"`
	Cached   bool                `json:"cached"`
	Stats    rasql.QueryStats    `json:"stats"`
}

func decodeResponse(body []byte) (*fullResponse, *relation.Relation, error) {
	var resp fullResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, nil, fmt.Errorf("decode response: %w", err)
	}
	rel, err := server.DecodeRelation("result", resp.Columns, resp.Rows)
	if err != nil {
		return nil, nil, err
	}
	if resp.RowCount != len(rel.Rows) {
		return nil, nil, fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(rel.Rows))
	}
	return &resp, rel, nil
}

// check compares one fully decoded reply with the oracle's answer, as sets.
func (o *oracle) check(r request, status int, reply []byte) (*fullResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", r.key, status, reply)
	}
	resp, got, err := decodeResponse(reply)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.key, err)
	}
	want, err := o.eng.Exec(r.sql)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", r.key, err)
	}
	if want == nil { // CREATE VIEW answers with no rows
		want = relation.New("empty", got.Schema)
	}
	if !got.EqualAsSet(want) {
		return nil, fmt.Errorf("%s: %d rows differ from the oracle's %d:\n%s\nwant\n%s",
			r.key, got.Len(), want.Len(), got.Format(5), want.Format(5))
	}
	return resp, nil
}

// checkAll sends every distinct statement of the workload once, compares each
// full reply with the oracle, and returns the answers the rounds check by.
func (o *oracle) checkAll(w workload, pass int, cl doer, t *tally) map[string]answer {
	want := map[string]answer{}
	for _, r := range w.checkRequests(pass) {
		status, reply, _, err := cl.do(queryBody(r.sql, ""))
		if err == nil {
			_, err = o.check(r, status, reply)
		}
		var a answer
		if err == nil {
			a, err = parseAnswer(reply)
		}
		if err != nil {
			t.add(1, 1, strings.TrimSpace(err.Error()))
			continue
		}
		t.add(1, 0, "")
		want[r.key] = a
	}
	return want
}
