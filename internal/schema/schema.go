// Package schema implements the Appendix D substrate: a local database
// schema inferred from the queries in a log ("we created a local
// database with a schema consistent with the tables and attributes
// found in the queries"), AST validation against it, and the
// column→table containment filter that lifts closure precision to 100%.
package schema

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Catalog maps table names to their column sets (all lower-cased).
type Catalog struct {
	tables map[string]map[string]bool
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]map[string]bool{}}
}

// AddColumn records that table contains column.
func (c *Catalog) AddColumn(table, column string) {
	t := strings.ToLower(lastPart(table))
	col := strings.ToLower(column)
	if c.tables[t] == nil {
		c.tables[t] = map[string]bool{}
	}
	c.tables[t][col] = true
}

// AddTable records a table (possibly with no known columns yet).
func (c *Catalog) AddTable(table string) {
	t := strings.ToLower(lastPart(table))
	if c.tables[t] == nil {
		c.tables[t] = map[string]bool{}
	}
}

// HasTable reports whether the catalog knows the table.
func (c *Catalog) HasTable(table string) bool {
	_, ok := c.tables[strings.ToLower(lastPart(table))]
	return ok
}

// HasColumn reports whether the table contains the column.
func (c *Catalog) HasColumn(table, column string) bool {
	cols, ok := c.tables[strings.ToLower(lastPart(table))]
	return ok && cols[strings.ToLower(column)]
}

// InferFromQueries builds a catalog from parsed queries by attributing
// every column reference to the tables in the enclosing query block:
// qualified references go to their aliased table; unqualified ones are
// credited to every table in the block's FROM (the safe
// over-approximation, exactly what a schema crawl of the logged
// workload can know).
func InferFromQueries(queries []*ast.Node) *Catalog {
	c := NewCatalog()
	for _, q := range queries {
		inferBlock(c, q)
	}
	return c
}

func inferBlock(c *Catalog, sel *ast.Node) {
	if sel == nil || sel.Type != ast.TypeSelect {
		return
	}
	aliases, tables, onConds := blockTables(c, sel)
	walkExprs(sel, onConds, func(n *ast.Node) {
		if n.Type == ast.TypeSubQuery {
			inferBlock(c, n.Child(0))
			return
		}
		qual := strings.ToLower(n.Attr("table"))
		if qual != "" {
			if t, ok := aliases[qual]; ok {
				c.AddColumn(t, n.Value())
			} else {
				c.AddColumn(qual, n.Value())
			}
			return
		}
		for _, t := range tables {
			c.AddColumn(t, n.Value())
		}
	})
}

// walkExprs visits, in pre-order, the subqueries and column references
// of one block's non-FROM clauses and JOIN ON conditions, without
// descending into either: a subquery is its own block.
func walkExprs(sel *ast.Node, onConds []*ast.Node, visit func(n *ast.Node)) {
	fn := func(n *ast.Node, _ ast.Path) bool {
		if n.Type != ast.TypeSubQuery && n.Type != ast.TypeColExpr {
			return true
		}
		visit(n)
		return false
	}
	for slot, ch := range sel.Children {
		if slot != ast.SlotFrom { // FROM is handled by blockTables
			ch.Walk(fn)
		}
	}
	for _, cond := range onConds {
		cond.Walk(fn)
	}
}

// flattenFrom expands JOIN chains into their leaf FromClauses and
// collects the ON conditions for expression-level processing.
func flattenFrom(from *ast.Node) (leaves []*ast.Node, onConds []*ast.Node) {
	var rec func(fc *ast.Node)
	rec = func(fc *ast.Node) {
		rel := fc.Child(0)
		if rel != nil && rel.Type == ast.TypeJoin {
			rec(rel.Child(0))
			rec(rel.Child(1))
			onConds = append(onConds, rel.Child(2))
			return
		}
		leaves = append(leaves, fc)
	}
	if !ast.IsEmptyClause(from) {
		for _, fc := range from.Children {
			rec(fc)
		}
	}
	return leaves, onConds
}

// blockTables registers the FROM tables of one block and returns the
// alias map, the list of base tables (subqueries recurse but do not
// contribute a base table), and any JOIN ON conditions.
func blockTables(c *Catalog, sel *ast.Node) (map[string]string, []string, []*ast.Node) {
	aliases := map[string]string{}
	var tables []string
	leaves, onConds := flattenFrom(sel.Child(ast.SlotFrom))
	for _, fc := range leaves {
		rel := fc.Child(0)
		alias := strings.ToLower(fc.Attr("alias"))
		switch rel.Type {
		case ast.TypeTabExpr:
			name := lastPart(rel.Value())
			c.AddTable(name)
			tables = append(tables, name)
			if alias != "" {
				aliases[alias] = name
			}
			aliases[strings.ToLower(name)] = name
		case ast.TypeSubQuery:
			inferBlock(c, rel.Child(0))
		case ast.TypeTabFunc:
			// Table functions expose an opaque relation; register under
			// the function name so qualified refs (d.objID) validate.
			name := lastPart(rel.Child(0).Value())
			c.AddTable(name)
			if alias != "" {
				aliases[alias] = name
			}
		}
	}
	return aliases, tables, onConds
}

// Violation describes one schema error found by Validate.
type Violation struct {
	Msg string
}

// Validate checks a query against the catalog the way Appendix D's
// precision experiment does: every referenced table must exist and
// every column reference must be contained in (one of) the tables of
// its query block. It returns all violations (none for a valid query).
func (c *Catalog) Validate(sel *ast.Node) []Violation {
	var out []Violation
	c.validateBlock(sel, &out)
	return out
}

func (c *Catalog) validateBlock(sel *ast.Node, out *[]Violation) {
	if sel == nil || sel.Type != ast.TypeSelect {
		return
	}
	aliases := map[string]string{}
	var tables []string
	leaves, onConds := flattenFrom(sel.Child(ast.SlotFrom))
	for _, fc := range leaves {
		rel := fc.Child(0)
		alias := strings.ToLower(fc.Attr("alias"))
		switch rel.Type {
		case ast.TypeTabExpr:
			name := lastPart(rel.Value())
			if !c.HasTable(name) {
				*out = append(*out, Violation{Msg: fmt.Sprintf("unknown table %q", rel.Value())})
				continue
			}
			tables = append(tables, name)
			if alias != "" {
				aliases[alias] = name
			}
			aliases[strings.ToLower(name)] = name
		case ast.TypeSubQuery:
			c.validateBlock(rel.Child(0), out)
		case ast.TypeTabFunc:
			name := lastPart(rel.Child(0).Value())
			if alias != "" && c.HasTable(name) {
				aliases[alias] = name
			}
		}
	}
	walkExprs(sel, onConds, func(n *ast.Node) {
		if n.Type == ast.TypeSubQuery {
			c.validateBlock(n.Child(0), out)
			return
		}
		qual := strings.ToLower(n.Attr("table"))
		if qual != "" {
			t, ok := aliases[qual]
			if !ok {
				t = qual
			}
			if !c.HasColumn(t, n.Value()) {
				*out = append(*out, Violation{Msg: fmt.Sprintf("column %s.%s not in schema", qual, n.Value())})
			}
			return
		}
		if strings.EqualFold(n.Value(), "now") {
			return // pseudo-column (Listing 4)
		}
		for _, t := range tables {
			if c.HasColumn(t, n.Value()) {
				return
			}
		}
		*out = append(*out, Violation{Msg: fmt.Sprintf("column %q not in any FROM table", n.Value())})
	})
}

// Valid reports whether the query has no schema violations.
func (c *Catalog) Valid(sel *ast.Node) bool { return len(c.Validate(sel)) == 0 }

func lastPart(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}
