package analysis

import (
	"go/token"
	"strings"
	"testing"
)

var outputDiags = []Diagnostic{
	{
		Pos:      token.Position{Filename: "cluster/shuffle.go", Line: 42, Column: 7},
		Analyzer: "guardedby",
		Code:     "RL005",
		Message:  "read of n (guarded by mu) without holding c.mu",
	},
	{
		Pos:      token.Position{Filename: "cluster/pool.go", Line: 9, Column: 2},
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
	{
		Pos:      token.Position{Filename: "cluster/relaxed.go", Line: 270, Column: 3},
		Analyzer: "golifecycle",
		Code:     "RL009",
		Message:  "goroutine is not join-accounted: no WaitGroup.Done on its exit paths and no //rasql:detach justification",
	},
}

func TestRenderHumanGolden(t *testing.T) {
	var b strings.Builder
	if err := RenderHuman(&b, outputDiags); err != nil {
		t.Fatal(err)
	}
	want := "cluster/shuffle.go:42:7: guardedby: read of n (guarded by mu) without holding c.mu\n" +
		"cluster/pool.go:9:2: rasql-lint: //rasql:allow names \"quoted\", which is not a registered analyzer\n" +
		"types/encode.go:151:9: noalloc: types.DecodeRowsAppend is annotated //rasql:noalloc but calls fmt.Sprintf, not known to be allocation-free\n" +
		"cluster/relaxed.go:270:3: golifecycle: goroutine is not join-accounted: no WaitGroup.Done on its exit paths and no //rasql:detach justification\n"
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
    "line": 42,
    "col": 7,
    "analyzer": "guardedby",
    "code": "RL005",
    "message": "read of n (guarded by mu) without holding c.mu"
  },
  {
    "file": "cluster/pool.go",
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
  },
  {
    "file": "cluster/relaxed.go",
    "line": 270,
    "col": 3,
    "analyzer": "golifecycle",
    "code": "RL009",
    "message": "goroutine is not join-accounted: no WaitGroup.Done on its exit paths and no //rasql:detach justification"
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
