// Package catalog tracks the base tables and named (non-recursive) views
// visible to query analysis, keyed case-insensitively.
//
// A Catalog is safe for concurrent use: an RWMutex guards the two maps
// (machine-checked by the guardedby analyzer), and concurrent queries take
// snapshot-isolated reads via Clone — each query analyzes against its own
// frozen copy while CREATE VIEW commits mutate the shared session catalog
// under the write lock.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/rasql/rasql-go/internal/relation"
	"github.com/rasql/rasql-go/internal/sql/ast"
)

// ViewDef is a CREATE VIEW definition awaiting analysis/materialization.
type ViewDef struct {
	Name    string
	Columns []string
	Query   *ast.Select
}

// Catalog maps names to base tables and view definitions.
type Catalog struct {
	// mu guards the name maps; reads take the read lock, registrations the
	// write lock. Lock ordering: mu nests inside nothing — no catalog
	// method calls out while holding it.
	mu sync.RWMutex
	//rasql:guardedby=mu
	tables map[string]*relation.Relation
	//rasql:guardedby=mu
	views map[string]*ViewDef
	// version counts DDL commits (table or view registrations, replacements
	// and drops). Plan caches key compiled plans on it: any mutation bumps
	// the version, so a plan compiled against an older catalog can never be
	// served after DDL changes what its names resolve to.
	//rasql:guardedby=mu
	version uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: map[string]*relation.Relation{},
		views:  map[string]*ViewDef{},
	}
}

func key(name string) string { return strings.ToLower(name) }

// Clone returns an independent catalog holding the same tables and view
// definitions. Registrations on the clone do not affect the original —
// used by tooling (vet, explain) and by concurrent query execution, which
// analyzes against a snapshot-isolated copy of the session catalog.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tables := make(map[string]*relation.Relation, len(c.tables))
	for k, t := range c.tables {
		tables[k] = t
	}
	views := make(map[string]*ViewDef, len(c.views))
	for k, v := range c.views {
		views[k] = v
	}
	return &Catalog{tables: tables, views: views, version: c.version}
}

// Version returns the catalog's DDL commit counter. The version and the
// name maps move together under one lock, so a Clone's Version identifies
// exactly the snapshot its names came from.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Register adds or replaces a base table and bumps the version. The catalog
// keeps rel itself, not a copy, so rel must not be mutated in place once
// registered: plans compiled against this version cache structures built
// from its rows. Register a new relation to change a table.
func (c *Catalog) Register(rel *relation.Relation) error {
	if rel.Name == "" {
		return fmt.Errorf("catalog: relation must be named")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[key(rel.Name)]; ok {
		return fmt.Errorf("catalog: %q already defined as a view", rel.Name)
	}
	c.tables[key(rel.Name)] = rel
	c.version++
	return nil
}

// RegisterView adds a view definition, erroring if the name is taken.
func (c *Catalog) RegisterView(v *ViewDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(v.Name)]; ok {
		return fmt.Errorf("catalog: %q already defined as a table", v.Name)
	}
	if _, ok := c.views[key(v.Name)]; ok {
		return fmt.Errorf("catalog: view %q already defined", v.Name)
	}
	c.views[key(v.Name)] = v
	c.version++
	return nil
}

// PutView adds or replaces a view definition, erroring only if the name
// collides with a base table. Sessions committing CREATE VIEW use it so
// re-running a script — or running it concurrently from several goroutines —
// stays idempotent instead of failing on the duplicate.
func (c *Catalog) PutView(v *ViewDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(v.Name)]; ok {
		return fmt.Errorf("catalog: %q already defined as a table", v.Name)
	}
	c.views[key(v.Name)] = v
	c.version++
	return nil
}

// Table looks up a base table.
func (c *Catalog) Table(name string) (*relation.Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	return t, ok
}

// View looks up a view definition.
func (c *Catalog) View(name string) (*ViewDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// DropView removes a view (used by sessions re-running scripts).
func (c *Catalog) DropView(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.views, key(name))
	c.version++
}

// Names lists all registered table and view names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables)+len(c.views))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	for _, v := range c.views {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}
