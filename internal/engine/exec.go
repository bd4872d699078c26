package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Exec executes a SELECT AST against the database and returns the
// result relation. This is the exec() function the paper assumes is
// provided (§3.3); generated interfaces call it on every interaction.
//
// Exec consumes only the read-only Catalog interface and never writes
// to what it hands out: a lone FROM table is not copied, so WHERE and
// GROUP BY hold the catalog's own row slices and only read them; ORDER
// BY sorts through a fresh index slice; every result row is newly
// allocated by the projection; and the column-binding memo is private
// to the call (subqueries make their own). Exec is therefore safe to
// call concurrently from many goroutines against a shared catalog, as
// long as the catalog itself is immutable while serving — a *DB built
// before serving begins, or a copy-on-write store snapshot
// (internal/store), which is immutable by construction. Registered
// TableFuncs must uphold the same property.
func Exec(cat Catalog, sel *ast.Node) (*Table, error) {
	if sel == nil || sel.Type != ast.TypeSelect {
		return nil, fmt.Errorf("engine: not a SELECT ast (%v)", sel)
	}
	src, err := evalFrom(cat, sel.Child(ast.SlotFrom))
	if err != nil {
		return nil, err
	}
	ctx := newEvalCtx(cat, src.bindings)

	// WHERE.
	rows := src.rows
	if w := sel.Child(ast.SlotWhere); !ast.IsEmptyClause(w) {
		var kept [][]Value
		for _, row := range rows {
			v, err := ctx.withRow(row).eval(w.Child(0))
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	proj := sel.Child(ast.SlotProject)
	groupBy := sel.Child(ast.SlotGroupBy)
	having := sel.Child(ast.SlotHaving)
	orderBy := sel.Child(ast.SlotOrderBy)

	aggregated := isAggregated(sel)

	outCols := projectionNames(proj, src)
	var out [][]Value
	var sortKeys [][]Value

	evalOrderKeys := func(rowCtx *evalCtx) ([]Value, error) {
		if ast.IsEmptyClause(orderBy) {
			return nil, nil
		}
		keys := make([]Value, 0, orderBy.NumChildren())
		for _, oc := range orderBy.Children {
			v, err := rowCtx.eval(oc.Child(0))
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		return keys, nil
	}

	if aggregated {
		groups, order, err := groupRows(ctx, rows, groupBy)
		if err != nil {
			return nil, err
		}
		for _, key := range order {
			g := groups[key]
			gctx := *ctx
			gctx.group = g
			if len(g) > 0 {
				gctx.row = g[0]
			} else {
				gctx.row = make([]Value, len(src.bindings))
			}
			if !ast.IsEmptyClause(having) {
				v, err := gctx.eval(having.Child(0))
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			row, err := projectRow(&gctx, proj, src, len(outCols))
			if err != nil {
				return nil, err
			}
			out = append(out, row)
			keys, err := evalOrderKeys(&gctx)
			if err != nil {
				return nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	} else {
		for _, r := range rows {
			rctx := ctx.withRow(r)
			row, err := projectRow(rctx, proj, src, len(outCols))
			if err != nil {
				return nil, err
			}
			out = append(out, row)
			keys, err := evalOrderKeys(rctx)
			if err != nil {
				return nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}

	// DISTINCT.
	if sel.Attr("distinct") == "true" {
		seen := map[string]bool{}
		var dedup [][]Value
		var dedupKeys [][]Value
		for i, row := range out {
			k := rowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, row)
			dedupKeys = append(dedupKeys, sortKeys[i])
		}
		out, sortKeys = dedup, dedupKeys
	}

	// ORDER BY (stable).
	if !ast.IsEmptyClause(orderBy) {
		dirs := make([]int, orderBy.NumChildren())
		for i, oc := range orderBy.Children {
			if oc.Attr("dir") == "desc" {
				dirs[i] = -1
			} else {
				dirs[i] = 1
			}
		}
		idx := make([]int, len(out))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
			for i := range ka {
				cmp := Compare(ka[i], kb[i]) * dirs[i]
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		sorted := make([][]Value, len(out))
		for i, j := range idx {
			sorted[i] = out[j]
		}
		out = sorted
	}

	// TOP / LIMIT.
	if lim := sel.Child(ast.SlotLimit); !ast.IsEmptyClause(lim) && lim.NumChildren() > 0 {
		n, ok := ast.NumValue(lim.Child(0))
		if !ok || n < 0 {
			return nil, fmt.Errorf("engine: bad LIMIT value %q", lim.Child(0).Value())
		}
		if int(n) < len(out) {
			out = out[:int(n)]
		}
	}

	res := &Table{Name: "result", Cols: outCols, Rows: out}
	return res, nil
}

// source is the joined FROM result: bindings plus materialized rows.
type source struct {
	bindings []binding
	rows     [][]Value
}

// evalFrom resolves the FROM clause into a single source. A lone FROM
// item is returned as is, sharing its rows; more items are
// cross-joined. An empty FROM produces a single empty row so SELECT
// 1+1 works.
func evalFrom(cat Catalog, from *ast.Node) (*source, error) {
	total := &source{rows: [][]Value{{}}}
	for i, fc := range from.Children {
		s, err := resolveSource(cat, fc)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			s = crossJoin(total, s)
		}
		total = s
	}
	return total, nil
}

// crossJoin combines two sources (Cartesian product).
func crossJoin(a, b *source) *source {
	out := &source{}
	out.bindings = append(out.bindings, a.bindings...)
	out.bindings = append(out.bindings, b.bindings...)
	for _, l := range a.rows {
		for _, r := range b.rows {
			row := make([]Value, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// resolveSource materializes one FROM clause, including JOIN ... ON
// chains, into a source.
func resolveSource(cat Catalog, fc *ast.Node) (*source, error) {
	if rel := fc.Child(0); rel != nil && rel.Type == ast.TypeJoin {
		return resolveJoin(cat, rel)
	}
	rel, alias, err := resolveRelation(cat, fc)
	if err != nil {
		return nil, err
	}
	s := &source{}
	for _, col := range rel.Cols {
		s.bindings = append(s.bindings, binding{alias: alias, col: col})
	}
	s.rows = rel.Rows
	return s, nil
}

// resolveJoin evaluates an inner or left join: the cross product
// filtered by the ON condition, plus (for LEFT JOIN) unmatched left
// rows padded with NULLs.
func resolveJoin(cat Catalog, j *ast.Node) (*source, error) {
	left, err := resolveSource(cat, j.Child(0))
	if err != nil {
		return nil, err
	}
	right, err := resolveSource(cat, j.Child(1))
	if err != nil {
		return nil, err
	}
	on := j.Child(2)
	out := &source{}
	out.bindings = append(out.bindings, left.bindings...)
	out.bindings = append(out.bindings, right.bindings...)
	ctx := newEvalCtx(cat, out.bindings)
	leftJoin := j.Attr("kind") == "left"
	nulls := make([]Value, len(right.bindings))
	for i := range nulls {
		nulls[i] = Null()
	}
	for _, l := range left.rows {
		matched := false
		for _, r := range right.rows {
			row := make([]Value, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			v, err := ctx.withRow(row).eval(on)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				matched = true
				out.rows = append(out.rows, row)
			}
		}
		if leftJoin && !matched {
			row := make([]Value, 0, len(l)+len(nulls))
			row = append(row, l...)
			row = append(row, nulls...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// resolveRelation materializes one FROM item (table, subquery or
// table-valued function) and returns it with its binding alias.
func resolveRelation(cat Catalog, fc *ast.Node) (*Table, string, error) {
	rel := fc.Child(0)
	alias := fc.Attr("alias")
	switch rel.Type {
	case ast.TypeTabExpr:
		t, ok := cat.Table(rel.Value())
		if !ok {
			return nil, "", fmt.Errorf("engine: unknown table %q", rel.Value())
		}
		if alias == "" {
			alias = t.Name
		}
		return t, alias, nil
	case ast.TypeSubQuery:
		t, err := Exec(cat, rel.Child(0))
		if err != nil {
			return nil, "", err
		}
		return t, alias, nil
	case ast.TypeTabFunc:
		fn, ok := cat.Func(rel.Child(0).Value())
		if !ok {
			return nil, "", fmt.Errorf("engine: unknown table function %q", rel.Child(0).Value())
		}
		args := make([]Value, 0, rel.NumChildren()-1)
		ctx := newEvalCtx(cat, nil)
		for _, a := range rel.Children[1:] {
			v, err := ctx.eval(a)
			if err != nil {
				return nil, "", err
			}
			args = append(args, v)
		}
		t, err := fn(args)
		if err != nil {
			return nil, "", err
		}
		if alias == "" {
			alias = t.Name
		}
		return t, alias, nil
	}
	return nil, "", fmt.Errorf("engine: unsupported FROM item %s", rel.Type)
}

// groupRows partitions rows by the GROUP BY expressions; with no GROUP
// BY every row falls into one group (global aggregation). Group order
// follows first appearance.
func groupRows(ctx *evalCtx, rows [][]Value, groupBy *ast.Node) (map[string][][]Value, []string, error) {
	groups := map[string][][]Value{}
	var order []string
	if ast.IsEmptyClause(groupBy) {
		groups[""] = rows
		return groups, []string{""}, nil
	}
	for _, row := range rows {
		rctx := ctx.withRow(row)
		var key strings.Builder
		for _, ge := range groupBy.Children {
			v, err := rctx.eval(ge)
			if err != nil {
				return nil, nil, err
			}
			key.WriteString(v.Key())
			key.WriteByte('\x01')
		}
		k := key.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	return groups, order, nil
}

// projectRow evaluates the projection list for one row/group context,
// expanding stars, into a row allocated at its final width (the
// length of projectionNames).
func projectRow(ctx *evalCtx, proj *ast.Node, src *source, width int) ([]Value, error) {
	if width == 0 {
		return nil, nil
	}
	out := make([]Value, 0, width)
	for _, pc := range proj.Children {
		e := pc.Child(0)
		if e.Type == ast.TypeStarExpr {
			tbl := e.Attr("table")
			for i, b := range src.bindings {
				if tbl == "" || strings.EqualFold(b.alias, tbl) {
					out = append(out, ctx.row[i])
				}
			}
			continue
		}
		v, err := ctx.eval(e)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// projectionNames derives output column names: alias, column name, or
// a rendered expression.
func projectionNames(proj *ast.Node, src *source) []string {
	var out []string
	for _, pc := range proj.Children {
		e := pc.Child(0)
		if e.Type == ast.TypeStarExpr {
			tbl := e.Attr("table")
			for _, b := range src.bindings {
				if tbl == "" || strings.EqualFold(b.alias, tbl) {
					out = append(out, b.col)
				}
			}
			continue
		}
		switch {
		case pc.Attr("alias") != "":
			out = append(out, pc.Attr("alias"))
		case e.Type == ast.TypeColExpr:
			out = append(out, e.Value())
		default:
			out = append(out, ast.SQL(e))
		}
	}
	return out
}

func rowKey(row []Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Key())
		b.WriteByte('\x01')
	}
	return b.String()
}
