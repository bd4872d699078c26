package engine

import (
	"fmt"

	"repro/internal/ast"
)

// Mutation is the logical result of evaluating an UPDATE or DELETE
// statement against a read snapshot: the resolved table, the visible
// row indexes the predicate matched, and (for UPDATE) the replacement
// rows, index-aligned with Matched. The caller maps snapshot indexes
// to durable row identities and publishes the physical mutation — the
// engine itself never writes; it only plans against the immutable
// Catalog it was handed, so concurrent readers of the same snapshot
// are unaffected.
type Mutation struct {
	Table   string
	Matched []int
	NewRows [][]Value // nil for DELETE
	Delete  bool
}

// EvalDML evaluates a parsed UPDATE or DELETE statement (from
// sqlparser.ParseStatement) against the catalog. SET expressions are
// evaluated per matched row and may reference the row's old values;
// aggregates and star expressions are rejected. Any other statement
// type is an error — SELECTs go through Exec.
func EvalDML(cat Catalog, stmt *ast.Node) (*Mutation, error) {
	switch stmt.Type {
	case ast.TypeUpdate:
		return evalUpdate(cat, stmt)
	case ast.TypeDelete:
		return evalDelete(cat, stmt)
	default:
		return nil, fmt.Errorf("engine: statement type %s is not a mutation", stmt.Type)
	}
}

// dmlTarget resolves the statement's target table and builds the
// evaluation context its predicate and SET expressions run under: one
// binding per column, aliased by both the bare table name and its
// qualified spelling.
func dmlTarget(cat Catalog, tab *ast.Node) (*Table, *evalCtx, error) {
	if tab == nil || tab.Type != ast.TypeTabExpr {
		return nil, nil, fmt.Errorf("engine: mutation target must be a table name")
	}
	t, ok := cat.Table(tab.Value())
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown table %q", tab.Value())
	}
	bindings := make([]binding, len(t.Cols))
	for i, c := range t.Cols {
		bindings[i] = binding{alias: t.Name, col: c}
	}
	return t, newEvalCtx(cat, bindings), nil
}

// matchRows returns the indexes of rows the (possibly empty) WHERE
// clause accepts.
func matchRows(t *Table, ctx *evalCtx, where *ast.Node) ([]int, error) {
	var matched []int
	if ast.IsEmptyClause(where) {
		matched = make([]int, len(t.Rows))
		for i := range t.Rows {
			matched[i] = i
		}
		return matched, nil
	}
	pred := where.Child(0)
	if hasAggregate(pred) {
		return nil, fmt.Errorf("engine: aggregates are not allowed in a mutation WHERE clause")
	}
	for i, row := range t.Rows {
		v, err := ctx.withRow(row).eval(pred)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			matched = append(matched, i)
		}
	}
	return matched, nil
}

func evalUpdate(cat Catalog, stmt *ast.Node) (*Mutation, error) {
	t, ctx, err := dmlTarget(cat, stmt.Child(0))
	if err != nil {
		return nil, err
	}
	set := stmt.Child(1)
	if set == nil || len(set.Children) == 0 {
		return nil, fmt.Errorf("engine: UPDATE %s has no SET items", t.Name)
	}
	type setItem struct {
		col  int
		expr *ast.Node
	}
	items := make([]setItem, 0, len(set.Children))
	assigned := make(map[int]bool, len(set.Children))
	for _, si := range set.Children {
		name := si.Attr("col")
		ci := t.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %q", t.Name, name)
		}
		if assigned[ci] {
			return nil, fmt.Errorf("engine: column %q assigned twice", name)
		}
		assigned[ci] = true
		if hasAggregate(si.Child(0)) {
			return nil, fmt.Errorf("engine: aggregates are not allowed in a SET expression")
		}
		items = append(items, setItem{col: ci, expr: si.Child(0)})
	}
	matched, err := matchRows(t, ctx, stmt.Child(2))
	if err != nil {
		return nil, err
	}
	newRows := make([][]Value, len(matched))
	for i, ri := range matched {
		old := t.Rows[ri]
		row := append([]Value(nil), old...)
		rctx := ctx.withRow(old) // SET exprs see the pre-update row
		for _, it := range items {
			v, err := rctx.eval(it.expr)
			if err != nil {
				return nil, err
			}
			row[it.col] = v
		}
		newRows[i] = row
	}
	return &Mutation{Table: t.Name, Matched: matched, NewRows: newRows}, nil
}

func evalDelete(cat Catalog, stmt *ast.Node) (*Mutation, error) {
	t, ctx, err := dmlTarget(cat, stmt.Child(0))
	if err != nil {
		return nil, err
	}
	matched, err := matchRows(t, ctx, stmt.Child(1))
	if err != nil {
		return nil, err
	}
	return &Mutation{Table: t.Name, Matched: matched, Delete: true}, nil
}
