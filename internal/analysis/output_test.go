package analysis

import (
	"go/token"
	"strings"
	"testing"
)

var outputDiags = []Diagnostic{
	{
		Pos:      token.Position{Filename: "cluster/shuffle.go", Line: 9, Column: 2},
		Analyzer: "rasql-lint",
		Code:     "RL000",
		Message:  `//rasql:allow names "quoted", which is not a registered analyzer`,
	},
	{
		Pos:      token.Position{Filename: "types/encode.go", Line: 151, Column: 9},
		Analyzer: "noalloc",
		Code:     "RL008",
		Message:  "types.DecodeRowsAppend is annotated //rasql:noalloc but calls fmt.Sprintf, not known to be allocation-free",
	},
}

func TestRenderHumanGolden(t *testing.T) {
	var b strings.Builder
	if err := RenderHuman(&b, outputDiags); err != nil {
		t.Fatal(err)
	}
	want := "cluster/shuffle.go:9:2: rasql-lint: //rasql:allow names \"quoted\", which is not a registered analyzer\n" +
		"types/encode.go:151:9: noalloc: types.DecodeRowsAppend is annotated //rasql:noalloc but calls fmt.Sprintf, not known to be allocation-free\n"
	if got := b.String(); got != want {
		t.Errorf("human output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderJSONGolden(t *testing.T) {
	var b strings.Builder
	if err := RenderJSON(&b, outputDiags); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "cluster/shuffle.go",
    "line": 9,
    "col": 2,
    "analyzer": "rasql-lint",
    "code": "RL000",
    "message": "//rasql:allow names \"quoted\", which is not a registered analyzer"
  },
  {
    "file": "types/encode.go",
    "line": 151,
    "col": 9,
    "analyzer": "noalloc",
    "code": "RL008",
    "message": "types.DecodeRowsAppend is annotated //rasql:noalloc but calls fmt.Sprintf, not known to be allocation-free"
  }
]
`
	if got := b.String(); got != want {
		t.Errorf("json output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRenderJSONEmpty pins that zero findings render as an empty array,
// not null: consumers can always range over the result.
func TestRenderJSONEmpty(t *testing.T) {
	var b strings.Builder
	if err := RenderJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "[]\n" {
		t.Errorf("empty json output = %q, want %q", got, "[]\n")
	}
}
