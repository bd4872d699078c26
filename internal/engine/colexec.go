package engine

import (
	"fmt"
	"strings"
)

// ExecColumnar runs a compiled columnar plan against the column
// vectors the catalog's table caches (Table.Columnar). The second
// return reports whether the plan could run here at all: false means
// "use the row path" (unknown table, unknown/unsupported column,
// qualifier mismatch) and carries no error. When it does run, the
// result is value-identical to Exec on the same catalog: same column
// names, same row order, same Value structs bit-for-bit.
func ExecColumnar(cat Catalog, p *ColPlan) (*Table, bool, error) {
	t, ok := cat.Table(p.Table)
	if !ok {
		return nil, false, nil
	}
	ct := t.Columnar()
	alias := p.alias
	if alias == "" {
		alias = ct.Name
	}
	resolve := func(r colRef) int {
		if r.qual != "" && !strings.EqualFold(r.qual, alias) {
			return -1
		}
		return ct.colIndexOf(r.name)
	}

	predCols := make([]int, len(p.preds))
	for i := range p.preds {
		if predCols[i] = resolve(p.preds[i].col); predCols[i] < 0 {
			return nil, false, nil
		}
	}
	groupCols := make([]int, len(p.groupBy))
	for i, r := range p.groupBy {
		gi := resolve(r)
		if gi < 0 || ct.cols[gi].Kind == ColMixed {
			return nil, false, nil
		}
		groupCols[i] = gi
	}
	projCols := make([]int, len(p.projs))
	for i := range p.projs {
		pj := &p.projs[i]
		projCols[i] = -1
		if pj.kind == projCol || (pj.kind == projAgg && pj.agg != aggCountStar) {
			if projCols[i] = resolve(pj.col); projCols[i] < 0 {
				return nil, false, nil
			}
		}
	}

	// Selection: start from a column's equality postings when they
	// answer a predicate, then narrow with the vectorized kernels.
	var sel []int32
	selAll := true
	usedIdx := -1
	for i := range p.preds {
		if pos, ok := ct.lookup(predCols[i], &p.preds[i]); ok {
			sel, selAll, usedIdx = pos, false, i
			break
		}
	}
	for i := range p.preds {
		if i == usedIdx {
			continue
		}
		f, ok := ct.predEval(&p.preds[i], predCols[i])
		if !ok {
			return nil, false, nil
		}
		if selAll {
			sel = make([]int32, 0, ct.N/4+1)
			for r := int32(0); r < int32(ct.N); r++ {
				if f(r) {
					sel = append(sel, r)
				}
			}
			selAll = false
		} else {
			kept := sel[:0]
			for _, r := range sel {
				if f(r) {
					kept = append(kept, r)
				}
			}
			sel = kept
		}
	}

	outCols, out, err := ct.project(p, alias, sel, selAll, groupCols, projCols)
	if err != nil {
		return nil, true, err
	}
	if p.limit >= 0 && p.limit < len(out) {
		out = out[:p.limit]
	}
	return &Table{Name: "result", Cols: outCols, Rows: out}, true, nil
}

func (ct *ColumnarTable) project(p *ColPlan, alias string, sel []int32, selAll bool, groupCols, projCols []int) ([]string, [][]Value, error) {
	each := func(f func(i int32) bool) {
		if selAll {
			for i := int32(0); i < int32(ct.N); i++ {
				if !f(i) {
					return
				}
			}
			return
		}
		for _, i := range sel {
			if !f(i) {
				return
			}
		}
	}

	if !p.grouped {
		var outCols []string
		var outIdx []int
		for k, pj := range p.projs {
			if pj.kind == projStar {
				// Single-source star: the qualifier either matches the
				// binding alias (all columns) or nothing.
				if pj.starQual == "" || strings.EqualFold(alias, pj.starQual) {
					for ci, c := range ct.Cols {
						outCols = append(outCols, c)
						outIdx = append(outIdx, ci)
					}
				}
				continue
			}
			outCols = append(outCols, pj.name)
			outIdx = append(outIdx, projCols[k])
		}
		var out [][]Value
		each(func(i int32) bool {
			if p.limit >= 0 && len(out) >= p.limit {
				return false
			}
			if len(outIdx) == 0 {
				out = append(out, nil)
				return true
			}
			row := make([]Value, len(outIdx))
			for k, ci := range outIdx {
				row[k] = ct.valueAt(ci, i)
			}
			out = append(out, row)
			return true
		})
		return outCols, out, nil
	}

	// Aggregated mode: one pass assigns group ids in first-appearance
	// order and folds every aggregate as rows stream by, mirroring the
	// row path's per-group accumulation order (groups collect rows in
	// row order, so streaming row-major gives identical float sums and
	// identical min/max tie-breaks).
	keyers := make([]groupKeyer, len(groupCols))
	for k, gi := range groupCols {
		keyers[k] = newGroupKeyer(&ct.cols[gi])
	}
	gkeys := map[[maxGroupCols]int32]int32{}
	var firstPos []int32
	var sizes []int64
	aggs := make([]aggAcc, len(p.projs))
	for k := range p.projs {
		aggs[k] = aggAcc{kind: p.projs[k].agg, ci: projCols[k], ct: ct}
	}
	grow := func(first int32) int32 {
		gid := int32(len(firstPos))
		firstPos = append(firstPos, first)
		sizes = append(sizes, 0)
		for k := range aggs {
			aggs[k].st = append(aggs[k].st, aggState{})
		}
		return gid
	}
	if len(groupCols) == 0 {
		grow(-1) // global aggregation always yields exactly one group
	}
	each(func(i int32) bool {
		var gid int32
		if len(groupCols) == 0 {
			gid = 0
			if sizes[0] == 0 {
				firstPos[0] = i
			}
		} else {
			var key [maxGroupCols]int32
			for k := range keyers {
				key[k] = keyers[k].id(i)
			}
			var ok bool
			gid, ok = gkeys[key]
			if !ok {
				gid = grow(i)
				gkeys[key] = gid
			}
		}
		sizes[gid]++
		for k := range aggs {
			aggs[k].add(gid, i)
		}
		return true
	})

	// Row-path quirk, preserved: with no GROUP BY and an empty
	// selection, groupRows hands the evaluator a nil group, and every
	// aggregate errors with "outside grouping context" — the global
	// aggregate over zero rows never returns 0/NULL. Surface the same
	// error for the first aggregate projection, left to right.
	if len(groupCols) == 0 && sizes[0] == 0 {
		for k := range p.projs {
			if p.projs[k].kind == projAgg {
				return nil, nil, fmt.Errorf("engine: aggregate %s outside grouping context", p.projs[k].agg)
			}
		}
	}

	outCols := make([]string, len(p.projs))
	for k := range p.projs {
		outCols[k] = p.projs[k].name
	}
	var out [][]Value
	for gid := range firstPos {
		row := make([]Value, len(p.projs))
		for k := range p.projs {
			pj := &p.projs[k]
			if pj.kind == projCol {
				if fp := firstPos[gid]; fp >= 0 {
					row[k] = ct.valueAt(projCols[k], fp)
				}
				continue
			}
			v, err := aggs[k].st[gid].result(pj.agg, sizes[gid])
			if err != nil {
				return nil, nil, err
			}
			row[k] = v
		}
		out = append(out, row)
	}
	return outCols, out, nil
}

// groupKeyer maps row positions of one group-by column to small dense
// ids whose equality matches Value.Key() equality: dictionary codes
// for string columns; per-distinct-float ids (with one shared id for
// NaN, whose Key renders "NaN") for numeric columns. NULL is id -1,
// matching Key's single NULL bucket.
type groupKeyer struct {
	col    *Column
	numIDs map[float64]int32
	nanID  int32
	next   int32
}

func newGroupKeyer(col *Column) groupKeyer {
	k := groupKeyer{col: col, nanID: -2}
	if col.Kind == ColNum {
		k.numIDs = make(map[float64]int32)
	}
	return k
}

func (k *groupKeyer) id(i int32) int32 {
	if k.col.Kind == ColStr {
		return k.col.Codes[i] // -1 is the NULL code
	}
	if k.col.Nulls != nil && k.col.Nulls[i] {
		return -1
	}
	f := k.col.Nums[i]
	if f != f { // NaN: one shared group id
		if k.nanID == -2 {
			k.nanID = k.next
			k.next++
		}
		return k.nanID
	}
	id, ok := k.numIDs[f]
	if !ok {
		id = k.next
		k.next++
		k.numIDs[f] = id
	}
	return id
}

// aggAcc folds one aggregate projection across all groups, one
// aggState per group. Errors (sum/avg over a non-numeric value) stay
// in their group's state rather than aborting the scan; result then
// surfaces them in (group, projection) order, the order the row path
// would have hit them in.
type aggAcc struct {
	kind aggKind
	ci   int
	ct   *ColumnarTable
	st   []aggState
}

func (a *aggAcc) add(gid, i int32) {
	switch a.kind {
	case aggNone, aggCountStar:
		return
	}
	col := &a.ct.cols[a.ci]
	// Unboxed fold for count/sum/avg over a ColNum column, whose
	// values are all numbers (count ignores sum).
	if col.Kind == ColNum && (a.kind == aggSum || a.kind == aggAvg || a.kind == aggCount) {
		if col.Nulls == nil || !col.Nulls[i] {
			a.st[gid].sum += col.Nums[i]
			a.st[gid].n++
		}
		return
	}
	a.st[gid].add(a.kind, a.ct.valueAt(a.ci, i))
}

// predEval compiles one predicate against one column into a per-row
// closure. String columns evaluate the predicate once per dictionary
// entry (through predValue, so cross-kind coercion like "5" = 5 is
// preserved) and then test codes; numeric columns get
// branch-light float compares when the literal is numeric; everything
// else falls through to boxing each value into predValue.
func (ct *ColumnarTable) predEval(pr *colPred, ci int) (func(i int32) bool, bool) {
	col := &ct.cols[ci]
	switch col.Kind {
	case ColStr:
		matches := make([]bool, len(col.Dict))
		for code, s := range col.Dict {
			matches[code] = predValue(Str(s), pr)
		}
		nullMatch := predValue(Null(), pr)
		codes := col.Codes
		return func(i int32) bool {
			c := codes[i]
			if c < 0 {
				return nullMatch
			}
			return matches[c]
		}, true
	case ColNum:
		nums := col.Nums
		nulls := col.Nulls
		notNull := func(i int32) bool { return nulls == nil || !nulls[i] }
		switch pr.op {
		case "is":
			return func(i int32) bool { return !notNull(i) }, true
		case "is not":
			return notNull, true
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			if pr.lit.Kind == KindNumber {
				lf := pr.lit.Num
				op := pr.op
				return func(i int32) bool {
					return notNull(i) && cmpHolds(op, cmpFloat(nums[i], lf))
				}, true
			}
		case "between":
			if pr.lo.Kind == KindNumber && pr.hi.Kind == KindNumber {
				lo, hi, not := pr.lo.Num, pr.hi.Num, pr.not
				return func(i int32) bool {
					if !notNull(i) {
						return false
					}
					in := cmpFloat(nums[i], lo) >= 0 && cmpFloat(nums[i], hi) <= 0
					return in != not
				}, true
			}
		}
		return func(i int32) bool {
			if !notNull(i) {
				return predValue(Null(), pr)
			}
			return predValue(Num(nums[i]), pr)
		}, true
	default:
		vals := col.Vals
		return func(i int32) bool { return predValue(vals[i], pr) }, true
	}
}

// predValue evaluates one compiled predicate against one boxed value:
// IS and IN here, everything else through the row path's compareOp
// and between.
func predValue(v Value, pr *colPred) bool {
	switch pr.op {
	case "is":
		return v.IsNull()
	case "is not":
		return !v.IsNull()
	case "between":
		return between(v, pr.lo, pr.hi, pr.not)
	case "in":
		found := false
		for _, it := range pr.items {
			if Equal(v, it) {
				found = true
				break
			}
		}
		return found != pr.not
	}
	res, _ := compareOp(pr.op, v, pr.lit)
	return res
}
