package engine

import "repro/internal/ast"

// maxGroupCols bounds the composite group key the kernels pack into a
// fixed-size array. Mined widget queries group by one or two columns;
// anything wider falls back to the row path.
const maxGroupCols = 4

// colRef is a compiled column reference: optional qualifier as written
// in the query, plus the bare column name. Resolution against the
// actual table happens at execution time (the table behind a name can
// change shape across epochs).
type colRef struct {
	qual string
	name string
}

// Predicate operators after normalization (reversed literal-op-column
// comparisons are flipped).
type colPred struct {
	col   colRef
	op    string // "=", "<>", "!=", "<", "<=", ">", ">=", "like", "not like", "is", "is not", "between", "in"
	lit   Value  // comparison / LIKE literal
	lo    Value  // BETWEEN bounds
	hi    Value
	items []Value // IN list
	not   bool    // negation for BETWEEN / IN
}

type projKind int

const (
	projCol projKind = iota
	projStar
	projAgg
)

type colProj struct {
	kind     projKind
	col      colRef // projCol, or the argument of projAgg
	agg      aggKind
	name     string // output column name (unused for projStar: expanded at exec)
	starQual string
}

// ColPlan is a compiled columnar execution plan for one widget-shaped
// SELECT: single-table FROM, a conjunction of column-vs-literal
// predicates, plain-column or plain-aggregate projections, optional
// GROUP BY on plain columns, optional LIMIT. CompileColumnar returns
// ok=false for anything outside that shape, and ExecColumnar can still
// decline at run time (unknown column, unsupported column layout) —
// both cases fall back to the row-at-a-time Exec, whose results the
// kernels reproduce byte-for-byte when they do run.
type ColPlan struct {
	Table   string // FROM table name as written in the query
	alias   string // explicit FROM alias ("" = the resolved table's name)
	preds   []colPred
	projs   []colProj
	groupBy []colRef
	grouped bool // aggregate mode (GROUP BY present or aggregate projection)
	limit   int  // -1 = no LIMIT
}

// CompileColumnar compiles a SELECT AST into a columnar plan, or
// reports ok=false when the query needs the general row-at-a-time
// path. Compilation is pure analysis — no catalog access — so plans
// cache alongside the bound AST in the api plan cache and survive
// epoch swaps.
func CompileColumnar(sel *ast.Node) (*ColPlan, bool) {
	if sel == nil || sel.Type != ast.TypeSelect {
		return nil, false
	}
	if sel.Attr("distinct") == "true" {
		return nil, false
	}
	if !ast.IsEmptyClause(sel.Child(ast.SlotHaving)) {
		return nil, false
	}
	if !ast.IsEmptyClause(sel.Child(ast.SlotOrderBy)) {
		return nil, false
	}

	from := sel.Child(ast.SlotFrom)
	if ast.IsEmptyClause(from) || from.NumChildren() != 1 {
		return nil, false
	}
	fc := from.Child(0)
	rel := fc.Child(0)
	if rel == nil || rel.Type != ast.TypeTabExpr {
		return nil, false
	}
	p := &ColPlan{Table: rel.Value(), alias: fc.Attr("alias"), limit: -1}

	if w := sel.Child(ast.SlotWhere); !ast.IsEmptyClause(w) {
		if !collectPreds(w.Child(0), &p.preds) {
			return nil, false
		}
	}

	gb := sel.Child(ast.SlotGroupBy)
	if !ast.IsEmptyClause(gb) {
		if gb.NumChildren() == 0 || gb.NumChildren() > maxGroupCols {
			return nil, false
		}
		for _, ge := range gb.Children {
			ref, ok := colRefOf(ge)
			if !ok {
				return nil, false
			}
			p.groupBy = append(p.groupBy, ref)
		}
	}

	proj := sel.Child(ast.SlotProject)
	if proj == nil || proj.NumChildren() == 0 {
		return nil, false
	}
	p.grouped = isAggregated(sel)
	for _, pc := range proj.Children {
		cp, ok := compileProj(pc, p.grouped)
		if !ok {
			return nil, false
		}
		p.projs = append(p.projs, cp)
	}

	if lim := sel.Child(ast.SlotLimit); !ast.IsEmptyClause(lim) && lim.NumChildren() > 0 {
		n, ok := ast.NumValue(lim.Child(0))
		if !ok || n < 0 {
			return nil, false // the row path reports the error
		}
		p.limit = int(n)
	}
	return p, true
}

// compileProj compiles one projection clause. Output names replicate
// projectionNames: explicit alias wins, a bare column projects under
// its written name, anything else renders through ast.SQL.
func compileProj(pc *ast.Node, grouped bool) (colProj, bool) {
	e := unparen(pc.Child(0))
	alias := pc.Attr("alias")
	name := func(def string) string {
		if alias != "" {
			return alias
		}
		return def
	}
	// NOTE: projectionNames renders the *unwrapped* child, so only
	// treat parenthesized expressions as transparent when they carry an
	// alias (the rendered name of "(x)" differs from "x").
	raw := pc.Child(0)
	if raw != e && alias == "" {
		return colProj{}, false
	}
	switch e.Type {
	case ast.TypeStarExpr:
		// The row path recognizes stars only as a direct projection
		// child (a parenthesized star would not expand there).
		if grouped || raw != e {
			return colProj{}, false
		}
		return colProj{kind: projStar, starQual: e.Attr("table")}, true
	case ast.TypeColExpr:
		return colProj{
			kind: projCol,
			col:  colRef{qual: e.Attr("table"), name: e.Value()},
			name: name(e.Value()),
		}, true
	case ast.TypeFuncExpr:
		if !grouped {
			return colProj{}, false
		}
		k, ok := aggKindOf(e)
		if !ok || e.Attr("distinct") == "true" {
			return colProj{}, false
		}
		if k == aggCountStar {
			return colProj{kind: projAgg, agg: k, name: name(ast.SQL(raw))}, true
		}
		if e.NumChildren() != 2 {
			return colProj{}, false
		}
		arg, ok := colRefOf(e.Child(1))
		if !ok {
			return colProj{}, false
		}
		return colProj{kind: projAgg, agg: k, col: arg, name: name(ast.SQL(raw))}, true
	}
	return colProj{}, false
}

// collectPreds flattens an AND-tree of supported predicates. Any
// unsupported node anywhere in the tree rejects the whole query —
// partial pushdown would change short-circuit error behavior.
func collectPreds(n *ast.Node, out *[]colPred) bool {
	n = unparen(n)
	if n == nil {
		return false
	}
	switch n.Type {
	case ast.TypeBiExpr:
		op := n.Attr("op")
		if op == "and" {
			return collectPreds(n.Child(0), out) && collectPreds(n.Child(1), out)
		}
		return compileComparison(n, op, out)
	case ast.TypeBetween:
		ref, ok := colRefOf(n.Child(0))
		if !ok {
			return false
		}
		lo, ok := litOf(n.Child(1))
		if !ok {
			return false
		}
		hi, ok := litOf(n.Child(2))
		if !ok {
			return false
		}
		*out = append(*out, colPred{col: ref, op: "between", lo: lo, hi: hi, not: n.Attr("not") == "true"})
		return true
	case ast.TypeInExpr:
		ref, ok := colRefOf(n.Child(0))
		if !ok {
			return false
		}
		if n.NumChildren() < 2 {
			return false
		}
		items := make([]Value, 0, n.NumChildren()-1)
		for _, item := range n.Children[1:] {
			v, ok := litOf(item)
			if !ok {
				return false // subquery or expression item
			}
			items = append(items, v)
		}
		*out = append(*out, colPred{col: ref, op: "in", items: items, not: n.Attr("not") == "true"})
		return true
	}
	return false
}

func compileComparison(n *ast.Node, op string, out *[]colPred) bool {
	switch op {
	case "is", "is not":
		// The row path tests the lhs for NULL without evaluating the rhs.
		ref, ok := colRefOf(n.Child(0))
		if !ok {
			return false
		}
		*out = append(*out, colPred{col: ref, op: op})
		return true
	case "like", "not like":
		// LIKE is not symmetric: only column-on-the-left compiles.
		ref, ok := colRefOf(n.Child(0))
		if !ok {
			return false
		}
		lit, ok := litOf(n.Child(1))
		if !ok {
			return false
		}
		*out = append(*out, colPred{col: ref, op: op, lit: lit})
		return true
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		if ref, ok := colRefOf(n.Child(0)); ok {
			lit, ok := litOf(n.Child(1))
			if !ok {
				return false
			}
			*out = append(*out, colPred{col: ref, op: op, lit: lit})
			return true
		}
		// literal OP column: flip the inequality around the column.
		lit, ok := litOf(n.Child(0))
		if !ok {
			return false
		}
		ref, ok := colRefOf(n.Child(1))
		if !ok {
			return false
		}
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
		*out = append(*out, colPred{col: ref, op: op, lit: lit})
		return true
	}
	return false
}

func unparen(n *ast.Node) *ast.Node {
	for n != nil && n.Type == ast.TypeParen {
		n = n.Child(0)
	}
	return n
}

func colRefOf(n *ast.Node) (colRef, bool) {
	n = unparen(n)
	if n == nil || n.Type != ast.TypeColExpr {
		return colRef{}, false
	}
	return colRef{qual: n.Attr("table"), name: n.Value()}, true
}

// litOf evaluates a (possibly parenthesized) literal through the row
// path's literal.
func litOf(n *ast.Node) (Value, bool) {
	n = unparen(n)
	if n == nil {
		return Value{}, false
	}
	if n.Type == ast.TypeUniExpr {
		// Fold a negated literal (BETWEEN -3 AND 6). evalUnary errors
		// on non-numeric operands, so those shapes stay on the row path.
		if n.Attr("op") != "-" {
			return Value{}, false
		}
		inner, ok := litOf(n.Child(0))
		if !ok {
			return Value{}, false
		}
		f, ok := inner.AsNumber()
		if !ok {
			return Value{}, false
		}
		return Num(-f), true
	}
	v, err := literal(n)
	return v, err == nil
}
