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

// flushAt is how many response bytes writeQueryResponse gathers before it
// hands them to the connection.
const flushAt = 32 << 10

// writeQueryResponse writes a statement's answer,
//
//	{"columns":[…],"rows":[[…],…],"row_count":N,"cached":B,"stats":{…}}
//
// and a newline, straight from the result's schema and rows into one
// buffer that goes to the connection every flushAt bytes. The bytes are
// json.Encoder's for the same document with the rows as [][]any
// (FuzzEncodeResponse compares them), except that a non-finite double,
// which encoding/json refuses, is written as the string "NaN", "Infinity"
// or "-Infinity".
func (s *Server) writeQueryResponse(w http.ResponseWriter, resp *queryResponse) {
	var cols []types.Column
	var rows []types.Row
	if resp.rel != nil {
		cols, rows = resp.rel.Schema.Columns, resp.rel.Rows
	}
	var statsJSON []byte
	if resp.stats != nil {
		var err error
		if statsJSON, err = json.Marshal(resp.stats); err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Room for the whole document when it is small (eight bytes a cell is
	// generous for numbers), and for a row past flushAt when it is not.
	size := 96 + 32*len(cols) + len(statsJSON)
	if len(rows) > 0 {
		size += 8 * len(rows) * (len(rows[0]) + 1)
	}
	buf := make([]byte, 0, min(size, flushAt+flushAt/2))
	buf = append(buf, `{"columns":[`...)
	for i, c := range cols { // ColumnJSON's encoding
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = appendString(buf, c.Name)
		buf = append(buf, `,"kind":`...)
		buf = appendString(buf, c.Type.String())
		buf = append(buf, '}')
	}
	buf = append(buf, `],"rows":[`...)
	for i, r := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendRow(buf, r)
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return // the client is gone; the status has been sent
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, `],"row_count":`...)
	buf = strconv.AppendInt(buf, int64(len(rows)), 10)
	buf = append(buf, `,"cached":`...)
	buf = strconv.AppendBool(buf, resp.cached)
	if statsJSON != nil {
		buf = append(buf, `,"stats":`...)
		buf = append(buf, statsJSON...)
	}
	buf = append(buf, "}\n"...)
	_, _ = w.Write(buf) // as above: a failed write has no one to tell
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
// one-digit negative exponent unpadded. A non-finite double becomes a
// string, which decodeValue reads back.
func appendFloat(b []byte, f float64) []byte {
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
