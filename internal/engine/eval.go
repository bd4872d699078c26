package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
)

// binding names one column of the row shape flowing through the
// executor: the relation alias (possibly "") and the column name.
type binding struct {
	alias string
	col   string
}

// evalCtx carries everything expression evaluation needs: the column
// bindings, the current row, the current group (non-nil only while
// evaluating aggregate projections/HAVING), and the read-only catalog
// for subqueries.
//
// cols memoizes each column reference's binding index on its first
// evaluation. It is private to one binding scope of one call (ASTs are
// shared and hash-consed, so a node may name other bindings in a
// subquery or a join); withRow copies share it.
type evalCtx struct {
	cat      Catalog
	bindings []binding
	cols     map[*ast.Node]int
	row      []Value
	group    [][]Value
}

func newEvalCtx(cat Catalog, bindings []binding) *evalCtx {
	return &evalCtx{cat: cat, bindings: bindings, cols: map[*ast.Node]int{}}
}

func (c *evalCtx) withRow(row []Value) *evalCtx {
	cp := *c
	cp.row = row
	return &cp
}

// column reads a column reference from the current row, resolving it
// against the bindings on its first evaluation.
func (c *evalCtx) column(n *ast.Node) (Value, error) {
	if i, ok := c.cols[n]; ok {
		return c.row[i], nil
	}
	table, col := n.Attr("table"), n.Value()
	for i, b := range c.bindings {
		if !strings.EqualFold(b.col, col) {
			continue
		}
		if table != "" && !strings.EqualFold(b.alias, table) {
			continue
		}
		c.cols[n] = i
		return c.row[i], nil
	}
	// The paper's Listing 4 uses a bare "now" pseudo-column; bind it to
	// a fixed epoch so the template queries execute.
	if table == "" && strings.EqualFold(col, "now") {
		return Num(0), nil
	}
	if table != "" {
		return Value{}, fmt.Errorf("engine: unknown column %s.%s", table, col)
	}
	return Value{}, fmt.Errorf("engine: unknown column %s", col)
}

// Aggregate kinds. count(*) is split from count(col): they differ on
// NULLs.
type aggKind int

const (
	aggNone aggKind = iota
	aggCountStar
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggNames = [...]string{aggCountStar: "count", aggCount: "count", aggSum: "sum", aggAvg: "avg", aggMin: "min", aggMax: "max"}

func (k aggKind) String() string { return aggNames[k] }

// aggKinds maps the aggregate functions both executors understand to
// their kind.
var aggKinds = map[string]aggKind{
	"count": aggCount, "sum": aggSum, "avg": aggAvg, "min": aggMin, "max": aggMax,
}

// aggKindOf classifies an aggregate call: COUNT() and COUNT(*) count
// rows. ok=false means fn is not an aggregate.
func aggKindOf(fn *ast.Node) (k aggKind, ok bool) {
	k, ok = aggKinds[fn.Child(0).Value()]
	if k == aggCount && (fn.NumChildren() == 1 || fn.Child(1).Type == ast.TypeStarExpr) {
		k = aggCountStar
	}
	return k, ok
}

// aggState folds one aggregate over one group: add each row's argument
// value in row order, then read result. A non-numeric SUM/AVG input is
// remembered and reported by result, so callers can keep scanning.
type aggState struct {
	n    int64 // non-NULL values folded
	sum  float64
	best Value
	err  error
}

func (s *aggState) add(k aggKind, v Value) {
	if v.IsNull() || s.err != nil {
		return
	}
	switch k {
	case aggSum, aggAvg:
		f, ok := v.AsNumber()
		if !ok {
			s.err = fmt.Errorf("engine: %s over non-numeric value %s", k, v)
			return
		}
		s.sum += f
	case aggMin, aggMax:
		if s.n == 0 {
			s.best = v
		} else if cmp := Compare(v, s.best); (k == aggMin && cmp < 0) || (k == aggMax && cmp > 0) {
			s.best = v
		}
	}
	s.n++
}

// result is the aggregate's value over a group of rows rows.
func (s *aggState) result(k aggKind, rows int64) (Value, error) {
	switch {
	case s.err != nil:
		return Value{}, s.err
	case k == aggCountStar:
		return Num(float64(rows)), nil
	case k == aggCount:
		return Num(float64(s.n)), nil
	case s.n == 0:
		return Null(), nil
	case k == aggSum:
		return Num(s.sum), nil
	case k == aggAvg:
		return Num(s.sum / float64(s.n)), nil
	}
	return s.best, nil
}

// hasAggregate reports whether the expression contains an aggregate
// function call.
func hasAggregate(n *ast.Node) bool {
	if n == nil {
		return false
	}
	if n.Type == ast.TypeFuncExpr {
		if _, ok := aggKinds[n.Child(0).Value()]; ok {
			return true
		}
	}
	if n.Type == ast.TypeSubQuery {
		return false // aggregates inside a subquery belong to it
	}
	for _, ch := range n.Children {
		if hasAggregate(ch) {
			return true
		}
	}
	return false
}

// isAggregated reports whether a SELECT runs in aggregated mode: GROUP
// BY or HAVING present, or an aggregate in any projection.
func isAggregated(sel *ast.Node) bool {
	if !ast.IsEmptyClause(sel.Child(ast.SlotGroupBy)) || !ast.IsEmptyClause(sel.Child(ast.SlotHaving)) {
		return true
	}
	for _, pc := range sel.Child(ast.SlotProject).Children {
		if hasAggregate(pc.Child(0)) {
			return true
		}
	}
	return false
}

// eval evaluates an expression node to a value.
func (c *evalCtx) eval(n *ast.Node) (Value, error) {
	switch n.Type {
	case ast.TypeNumExpr, ast.TypeStrExpr, ast.TypeBoolExpr, ast.TypeNullExpr:
		return literal(n)
	case ast.TypeColExpr:
		return c.column(n)
	case ast.TypeParen:
		return c.eval(n.Child(0))
	case ast.TypeUniExpr:
		return c.evalUnary(n)
	case ast.TypeBiExpr:
		return c.evalBinary(n)
	case ast.TypeFuncExpr:
		return c.evalFunc(n)
	case ast.TypeCastExpr:
		return c.evalCast(n)
	case ast.TypeCaseExpr:
		return c.evalCase(n)
	case ast.TypeInExpr:
		return c.evalIn(n)
	case ast.TypeBetween:
		return c.evalBetween(n)
	case ast.TypeSubQuery:
		return c.evalScalarSubquery(n)
	}
	return Value{}, fmt.Errorf("engine: cannot evaluate %s node", n.Type)
}

// errNotLiteral is literal's answer for a node that is not a literal.
var errNotLiteral = errors.New("engine: not a literal")

// literal evaluates a NUM/STR/BOOL/NULL node, the one definition both
// executors read literals through.
func literal(n *ast.Node) (Value, error) {
	switch n.Type {
	case ast.TypeNumExpr:
		f, ok := ast.NumValue(n)
		if !ok {
			return Value{}, fmt.Errorf("engine: bad numeric literal %q", n.Value())
		}
		return Num(f), nil
	case ast.TypeStrExpr:
		return Str(n.Value()), nil
	case ast.TypeBoolExpr:
		return Boolean(strings.EqualFold(n.Value(), "true")), nil
	case ast.TypeNullExpr:
		return Null(), nil
	}
	return Value{}, errNotLiteral
}

func (c *evalCtx) evalUnary(n *ast.Node) (Value, error) {
	v, err := c.eval(n.Child(0))
	if err != nil {
		return Value{}, err
	}
	switch n.Attr("op") {
	case "not":
		if v.IsNull() {
			return Null(), nil
		}
		return Boolean(!v.Truthy()), nil
	case "-":
		f, ok := v.AsNumber()
		if !ok {
			return Value{}, fmt.Errorf("engine: unary minus on non-number %s", v)
		}
		return Num(-f), nil
	}
	return Value{}, fmt.Errorf("engine: unknown unary op %q", n.Attr("op"))
}

func (c *evalCtx) evalBinary(n *ast.Node) (Value, error) {
	op := n.Attr("op")
	// Short-circuit logical operators.
	switch op {
	case "and":
		l, err := c.eval(n.Child(0))
		if err != nil {
			return Value{}, err
		}
		if !l.Truthy() {
			return Boolean(false), nil
		}
		r, err := c.eval(n.Child(1))
		if err != nil {
			return Value{}, err
		}
		return Boolean(r.Truthy()), nil
	case "or":
		l, err := c.eval(n.Child(0))
		if err != nil {
			return Value{}, err
		}
		if l.Truthy() {
			return Boolean(true), nil
		}
		r, err := c.eval(n.Child(1))
		if err != nil {
			return Value{}, err
		}
		return Boolean(r.Truthy()), nil
	}
	l, err := c.eval(n.Child(0))
	if err != nil {
		return Value{}, err
	}
	// IS [NOT] NULL before generic rhs evaluation (rhs is NullExpr).
	switch op {
	case "is":
		return Boolean(l.IsNull()), nil
	case "is not":
		return Boolean(!l.IsNull()), nil
	}
	r, err := c.eval(n.Child(1))
	if err != nil {
		return Value{}, err
	}
	if res, ok := compareOp(op, l, r); ok {
		return Boolean(res), nil
	}
	switch op {
	case "+", "-", "*", "/", "%":
		lf, ok1 := l.AsNumber()
		rf, ok2 := r.AsNumber()
		if !ok1 || !ok2 {
			return Value{}, fmt.Errorf("engine: arithmetic on non-numbers %s %s %s", l, op, r)
		}
		switch op {
		case "+":
			return Num(lf + rf), nil
		case "-":
			return Num(lf - rf), nil
		case "*":
			return Num(lf * rf), nil
		case "/":
			if rf == 0 {
				return Null(), nil
			}
			return Num(lf / rf), nil
		default:
			if rf == 0 {
				return Null(), nil
			}
			return Num(math.Mod(lf, rf)), nil
		}
	}
	return Value{}, fmt.Errorf("engine: unknown binary op %q", op)
}

func (c *evalCtx) evalFunc(n *ast.Node) (Value, error) {
	name := n.Child(0).Value()
	if _, ok := aggKinds[name]; ok {
		return c.evalAggregate(n)
	}
	args := make([]Value, 0, len(n.Children)-1)
	for _, a := range n.Children[1:] {
		v, err := c.eval(a)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	arity := func(k int) error {
		if len(args) != k {
			return fmt.Errorf("engine: %s expects %d args, got %d", name, k, len(args))
		}
		return nil
	}
	num1 := func(f func(float64) float64) (Value, error) {
		if err := arity(1); err != nil {
			return Value{}, err
		}
		x, ok := args[0].AsNumber()
		if !ok {
			return Null(), nil
		}
		return Num(f(x)), nil
	}
	switch name {
	case "floor":
		return num1(math.Floor)
	case "ceil", "ceiling":
		return num1(math.Ceil)
	case "abs":
		return num1(math.Abs)
	case "round":
		return num1(math.Round)
	case "sqrt":
		return num1(math.Sqrt)
	case "upper":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		return Str(strings.ToUpper(args[0].String())), nil
	case "lower":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		return Str(strings.ToLower(args[0].String())), nil
	case "length", "len":
		if err := arity(1); err != nil {
			return Value{}, err
		}
		return Num(float64(len(args[0].String()))), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	}
	return Value{}, fmt.Errorf("engine: unknown function %q", name)
}

// evalAggregate computes an aggregate over the current group.
func (c *evalCtx) evalAggregate(n *ast.Node) (Value, error) {
	name := n.Child(0).Value()
	if c.group == nil {
		return Value{}, fmt.Errorf("engine: aggregate %s outside grouping context", name)
	}
	k, _ := aggKindOf(n)
	var st aggState
	if k != aggCountStar {
		if n.NumChildren() < 2 {
			return Value{}, fmt.Errorf("engine: aggregate %s needs an argument", name)
		}
		var seen map[string]bool
		if n.Attr("distinct") == "true" {
			seen = map[string]bool{}
		}
		for _, row := range c.group {
			v, err := c.withRow(row).evalNonAgg(n.Child(1))
			if err != nil {
				return Value{}, err
			}
			if seen != nil {
				key := v.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			st.add(k, v)
		}
	}
	return st.result(k, int64(len(c.group)))
}

// evalNonAgg evaluates an expression in a per-row context (aggregates
// are not allowed; used for aggregate arguments).
func (c *evalCtx) evalNonAgg(n *ast.Node) (Value, error) {
	cp := *c
	cp.group = nil
	return cp.eval(n)
}

func (c *evalCtx) evalCast(n *ast.Node) (Value, error) {
	v, err := c.eval(n.Child(0))
	if err != nil {
		return Value{}, err
	}
	switch strings.ToLower(n.Attr("as")) {
	case "": // the ad-hoc log's single-argument CAST is the identity
		return v, nil
	case "int", "integer", "bigint":
		f, ok := v.AsNumber()
		if !ok {
			return Null(), nil
		}
		return Num(math.Trunc(f)), nil
	case "float", "real", "double":
		f, ok := v.AsNumber()
		if !ok {
			return Null(), nil
		}
		return Num(f), nil
	case "varchar", "char", "text", "string":
		return Str(v.String()), nil
	}
	return v, nil
}

func (c *evalCtx) evalCase(n *ast.Node) (Value, error) {
	var operand *Value
	idx := 0
	if n.NumChildren() > 0 && n.Child(0).Type != ast.TypeWhenClause && n.Child(0).Type != ast.TypeElseClause {
		v, err := c.eval(n.Child(0))
		if err != nil {
			return Value{}, err
		}
		operand = &v
		idx = 1
	}
	for ; idx < n.NumChildren(); idx++ {
		ch := n.Child(idx)
		switch ch.Type {
		case ast.TypeWhenClause:
			cond, err := c.eval(ch.Child(0))
			if err != nil {
				return Value{}, err
			}
			matched := false
			if operand != nil {
				matched = Equal(*operand, cond)
			} else {
				matched = cond.Truthy()
			}
			if matched {
				return c.eval(ch.Child(1))
			}
		case ast.TypeElseClause:
			return c.eval(ch.Child(0))
		}
	}
	return Null(), nil
}

func (c *evalCtx) evalIn(n *ast.Node) (Value, error) {
	needle, err := c.eval(n.Child(0))
	if err != nil {
		return Value{}, err
	}
	neg := n.Attr("not") == "true"
	found := false
	if n.NumChildren() == 2 && n.Child(1).Type == ast.TypeSubQuery {
		tbl, err := Exec(c.cat, n.Child(1).Child(0))
		if err != nil {
			return Value{}, err
		}
		for _, row := range tbl.Rows {
			if len(row) > 0 && Equal(needle, row[0]) {
				found = true
				break
			}
		}
	} else {
		for _, item := range n.Children[1:] {
			v, err := c.eval(item)
			if err != nil {
				return Value{}, err
			}
			if Equal(needle, v) {
				found = true
				break
			}
		}
	}
	return Boolean(found != neg), nil
}

func (c *evalCtx) evalBetween(n *ast.Node) (Value, error) {
	v, err := c.eval(n.Child(0))
	if err != nil {
		return Value{}, err
	}
	lo, err := c.eval(n.Child(1))
	if err != nil {
		return Value{}, err
	}
	hi, err := c.eval(n.Child(2))
	if err != nil {
		return Value{}, err
	}
	return Boolean(between(v, lo, hi, n.Attr("not") == "true")), nil
}

func (c *evalCtx) evalScalarSubquery(n *ast.Node) (Value, error) {
	tbl, err := Exec(c.cat, n.Child(0))
	if err != nil {
		return Value{}, err
	}
	if len(tbl.Rows) == 0 || len(tbl.Rows[0]) == 0 {
		return Null(), nil
	}
	return tbl.Rows[0][0], nil
}
