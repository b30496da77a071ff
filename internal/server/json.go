package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

// ColumnJSON describes one result column on the wire. Clients decode into
// it; writeQueryResponse writes its encoding directly.
type ColumnJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// body is a query response under construction. It is the query's
// rasql.RowSink: the engine hands it the last statement's rows as they are
// produced, and it appends each one's JSON at once, so the rows are never
// held as a relation. The head, which needs the schema, is written once the
// statement has run. The server keeps bodies in a free list between
// requests, so a warm request grows no buffer.
type body struct {
	head []byte // {"columns":[…],"rows":[
	rows []byte // the rows, then the rest of the document
	n    int    // rows appended
}

// Row appends r's JSON.
func (b *body) Row(r types.Row) {
	if b.n > 0 {
		b.rows = append(b.rows, ',')
	}
	b.rows = appendRow(b.rows, r)
	b.n++
}

// reset empties the body for the next request, keeping its memory.
func (b *body) reset() {
	b.head, b.rows, b.n = b.head[:0], b.rows[:0], 0
}

// writeQueryResponse writes a statement's answer,
//
//	{"columns":[…],"rows":[[…],…],"row_count":N,"cached":B,"stats":{…}}
//
// and a newline: the head from the result's schema, then the rows the
// engine appended to the body, then the count, the cache flag and the
// stats. The whole document is built before the status is written, so a
// statement that fails after some of its rows still answers with its own
// status. The bytes are json.Encoder's for the same document with the rows
// as [][]any (FuzzEncodeResponse compares them), except that a non-finite
// double, which encoding/json refuses, is written as the string "NaN",
// "Infinity" or "-Infinity".
func (s *Server) writeQueryResponse(w http.ResponseWriter, resp *queryResponse) {
	var cols []types.Column
	if resp.rel != nil {
		cols = resp.rel.Schema.Columns
	}
	var statsJSON []byte
	if resp.stats != nil {
		var err error
		if statsJSON, err = json.Marshal(resp.stats); err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	b := resp.body
	b.head = append(b.head[:0], `{"columns":[`...)
	for i, c := range cols { // ColumnJSON's encoding
		if i > 0 {
			b.head = append(b.head, ',')
		}
		b.head = append(b.head, `{"name":`...)
		b.head = appendString(b.head, c.Name)
		b.head = append(b.head, `,"kind":`...)
		b.head = appendString(b.head, c.Type.String())
		b.head = append(b.head, '}')
	}
	b.head = append(b.head, `],"rows":[`...)
	b.rows = append(b.rows, `],"row_count":`...)
	b.rows = strconv.AppendInt(b.rows, int64(b.n), 10)
	b.rows = append(b.rows, `,"cached":`...)
	b.rows = strconv.AppendBool(b.rows, resp.cached)
	if statsJSON != nil {
		b.rows = append(b.rows, `,"stats":`...)
		b.rows = append(b.rows, statsJSON...)
	}
	b.rows = append(b.rows, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write has no one to tell: the client is gone.
	if _, err := w.Write(b.head); err == nil {
		_, _ = w.Write(b.rows)
	}
}

// appendRow appends a row as a JSON array: ints and doubles as numbers,
// strings as strings, booleans as booleans, NULL as null.
func appendRow(b []byte, r types.Row) []byte {
	b = append(b, '[')
	for j, v := range r {
		if j > 0 {
			b = append(b, ',')
		}
		switch v.K {
		case types.KindInt:
			b = strconv.AppendInt(b, v.I, 10)
		case types.KindFloat:
			b = appendFloat(b, v.F)
		case types.KindString:
			b = appendString(b, v.S)
		case types.KindBool:
			b = strconv.AppendBool(b, v.I != 0)
		default:
			b = append(b, "null"...)
		}
	}
	return append(b, ']')
}

// appendFloat formats a double as encoding/json does: like ES6, shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent unpadded. A whole double of magnitude under
// 2^53 other than -0 is printed as the int it holds, the same digits,
// without the shortest-digits search: below 2^53 doubles are at most 1
// apart, so no shorter decimal reads back as the same one. A non-finite
// double becomes a string, which decodeValue reads back.
func appendFloat(b []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString quotes s as encoding/json does with HTML escaping on: '"'
// and '\\' escaped, control bytes as \b \f \n \r \t or \u00XX, '<' '>' '&'
// as \u003c \u003e \u0026, each invalid UTF-8 byte as \ufffd, and U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// parseKind maps the wire kind names (types.Kind.String) back to kinds.
func parseKind(s string) (types.Kind, error) {
	switch s {
	case "int":
		return types.KindInt, nil
	case "double":
		return types.KindFloat, nil
	case "string":
		return types.KindString, nil
	case "boolean":
		return types.KindBool, nil
	case "null":
		return types.KindNull, nil
	}
	return types.KindNull, fmt.Errorf("server: unknown column kind %q", s)
}

// DecodeRelation rebuilds a relation from a wire response (columns + rows).
// Clients decoding with encoding/json should decode row cells into
// json.Number (or any); both are handled here, and so are the strings
// "NaN", "Infinity" and "-Infinity" in a double column. Used by the differential
// tests and the HTTP bench client to compare server results against the
// in-process oracle.
func DecodeRelation(name string, cols []ColumnJSON, rows [][]any) (*relation.Relation, error) {
	schema := types.Schema{Columns: make([]types.Column, len(cols))}
	for i, c := range cols {
		k, err := parseKind(c.Kind)
		if err != nil {
			return nil, err
		}
		schema.Columns[i] = types.Column{Name: c.Name, Type: k}
	}
	rel := relation.New(name, schema)
	for _, jr := range rows {
		if len(jr) != len(cols) {
			return nil, fmt.Errorf("server: row has %d cells, schema has %d columns", len(jr), len(cols))
		}
		row := make(types.Row, len(jr))
		for j, cell := range jr {
			v, err := decodeValue(cell, schema.Columns[j].Type)
			if err != nil {
				return nil, fmt.Errorf("server: column %s: %w", cols[j].Name, err)
			}
			row[j] = v
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel, nil
}

// decodeValue converts one decoded JSON cell to a typed value. The declared
// column kind disambiguates JSON's single number type.
func decodeValue(cell any, kind types.Kind) (types.Value, error) {
	if cell == nil {
		return types.Null(), nil
	}
	switch c := cell.(type) {
	case json.Number:
		if kind == types.KindFloat {
			f, err := c.Float64()
			if err != nil {
				return types.Value{}, err
			}
			return types.Float(f), nil
		}
		i, err := c.Int64()
		if err != nil {
			// An int column can still carry a fractional literal when the
			// engine widened it; fall back to the float reading.
			f, ferr := c.Float64()
			if ferr != nil {
				return types.Value{}, err
			}
			return types.Float(f), nil
		}
		if kind == types.KindInt {
			return types.Int(i), nil
		}
		return types.Int(i), nil
	case float64:
		if kind == types.KindInt && c == float64(int64(c)) {
			return types.Int(int64(c)), nil
		}
		return types.Float(c), nil
	case int64:
		return types.Int(c), nil
	case string:
		if kind == types.KindFloat {
			switch c {
			case "NaN":
				return types.Float(math.NaN()), nil
			case "Infinity":
				return types.Float(math.Inf(1)), nil
			case "-Infinity":
				return types.Float(math.Inf(-1)), nil
			}
		}
		return types.Str(c), nil
	case bool:
		return types.Bool(c), nil
	}
	return types.Value{}, fmt.Errorf("unsupported JSON cell type %T", cell)
}
