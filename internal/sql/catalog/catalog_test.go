package catalog

import (
	"testing"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/types"
)

func rel(name string) *relation.Relation {
	return relation.New(name, types.NewSchema(types.Col("X", types.KindInt)))
}

func TestRegisterAndLookup(t *testing.T) {
	c := New()
	if err := c.Register(rel("Edge")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("edge"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, ok := c.Table("EDGE"); !ok {
		t.Error("lookup should be case-insensitive (upper)")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("missing table should not resolve")
	}
}

func TestRegisterUnnamedFails(t *testing.T) {
	c := New()
	if err := c.Register(rel("")); err == nil {
		t.Error("unnamed relation must be rejected")
	}
}

func TestViewTableNameConflicts(t *testing.T) {
	c := New()
	if err := c.Register(rel("t")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutView(&ViewDef{Name: "T"}); err == nil {
		t.Error("view name colliding with table must be rejected")
	}
	if err := c.PutView(&ViewDef{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	second := &ViewDef{Name: "V"}
	if err := c.PutView(second); err != nil {
		t.Fatalf("a second definition of a view must replace the first: %v", err)
	}
	if err := c.Register(rel("v")); err == nil {
		t.Error("table name colliding with view must be rejected")
	}
	if got, ok := c.View("v"); !ok || got != second {
		t.Error("view lookup does not find the replacing definition")
	}
}

func TestNamesSorted(t *testing.T) {
	c := New()
	_ = c.Register(rel("zeta"))
	_ = c.Register(rel("alpha"))
	_ = c.PutView(&ViewDef{Name: "mid"})
	names := c.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Errorf("names = %v", names)
	}
}

func TestReRegisterTableReplaces(t *testing.T) {
	c := New()
	_ = c.Register(rel("t"))
	r2 := rel("t")
	r2.Append(types.Row{types.Int(1)})
	if err := c.Register(r2); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Table("t")
	if got.Len() != 1 {
		t.Error("re-registration should replace the table")
	}
}

// TestVersionBumpsOnDDL pins the DDL-version contract the serving layer's
// plan cache keys on: every mutating commit bumps the version exactly once,
// reads never do, and Clone carries the version of its snapshot.
func TestVersionBumpsOnDDL(t *testing.T) {
	c := New()
	v := c.Version()
	if v != 0 {
		t.Fatalf("fresh catalog version = %d, want 0", v)
	}
	step := func(what string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := c.Version(); got != v+1 {
			t.Errorf("%s: version %d -> %d, want exactly +1", what, v, got)
		}
		v = c.Version()
	}
	step("register table", func() error { return c.Register(rel("edge")) })
	step("re-register table", func() error { return c.Register(rel("edge")) })
	step("register view", func() error { return c.PutView(&ViewDef{Name: "v1"}) })
	step("replace view", func() error { return c.PutView(&ViewDef{Name: "v1"}) })

	// Reads and lookups leave the version untouched.
	c.Table("edge")
	c.View("v1")
	c.Names()
	if got := c.Version(); got != v {
		t.Errorf("reads changed the version: %d -> %d", v, got)
	}

	// A clone snapshots the version; later commits on the original do not
	// leak into it.
	snap := c.Clone()
	if snap.Version() != v {
		t.Errorf("clone version = %d, want %d", snap.Version(), v)
	}
	if err := c.Register(rel("other")); err != nil {
		t.Fatal(err)
	}
	if snap.Version() != v {
		t.Errorf("original DDL changed the clone's version: %d", snap.Version())
	}
	if c.Version() != v+1 {
		t.Errorf("original version = %d, want %d", c.Version(), v+1)
	}
}
