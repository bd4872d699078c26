package engine

import (
	"cmp"
	"slices"
	"sort"
	"sync/atomic"
)

// eqIndex is one column's equality index: postings built lazily on the
// column's second `=` lookup and kept for the life of the
// ColumnarTable — one data epoch — so it never needs maintaining.
// Building on the first lookup would make a table queried once per
// epoch (a write-heavy interface) pay a sort per write for nothing.
type eqIndex struct {
	uses atomic.Int32
	p    atomic.Pointer[postings]
}

// postings lists a column's non-NULL row positions grouped by value:
// for ColStr, a counting sort over dictionary codes (code c's rows are
// pos[start[c]:start[c+1]]); for ColNum, a permutation sorted by
// (value, position). Positions ascend within each group.
type postings struct {
	pos   []int32
	start []int32
	nan   bool // ColNum holds a NaN, which equals every number: never served
}

// lookup answers pr, a predicate on column ci, from the column's
// postings: the ascending positions the scan kernel would select, in a
// fresh slice the caller may narrow in place. It declines (ok=false,
// the caller scans) for every operator but `=` (which never matches
// NULL, so postings leave NULLs out), ColMixed columns, non-numeric or
// NaN literals on ColNum, a ColNum column holding a NaN, and a
// column's first lookup.
func (ct *ColumnarTable) lookup(ci int, pr *colPred) ([]int32, bool) {
	col := &ct.cols[ci]
	if pr.op != "=" || col.Kind == ColMixed {
		return nil, false
	}
	lit := pr.lit.Num
	if col.Kind == ColNum && (pr.lit.Kind != KindNumber || lit != lit) {
		return nil, false
	}
	ix := &ct.eq[ci]
	p := ix.p.Load()
	if p == nil {
		if ix.uses.Add(1) == 1 {
			return nil, false
		}
		ix.p.CompareAndSwap(nil, col.postings())
		p = ix.p.Load()
	}
	if col.Kind == ColNum {
		if p.nan {
			return nil, false
		}
		lo := sort.Search(len(p.pos), func(i int) bool { return col.Nums[p.pos[i]] >= lit })
		hi := sort.Search(len(p.pos), func(i int) bool { return col.Nums[p.pos[i]] > lit })
		return slices.Clone(p.pos[lo:hi]), true
	}
	// Every dictionary entry the scan would match ("5", "05" and "NaN"
	// all equal 5), so one lookup may union several groups.
	var out []int32
	groups := 0
	for code, s := range col.Dict {
		if predValue(Str(s), pr) {
			out = append(out, p.pos[p.start[code]:p.start[code+1]]...)
			groups++
		}
	}
	if groups > 1 {
		slices.Sort(out)
	}
	return out, true
}

func (col *Column) postings() *postings {
	if col.Kind == ColStr {
		start := make([]int32, len(col.Dict)+1)
		for _, c := range col.Codes {
			if c >= 0 {
				start[c+1]++
			}
		}
		for c := 1; c < len(start); c++ {
			start[c] += start[c-1]
		}
		next := slices.Clone(start)
		pos := make([]int32, start[len(col.Dict)])
		for i, c := range col.Codes {
			if c >= 0 {
				pos[next[c]] = int32(i)
				next[c]++
			}
		}
		return &postings{pos: pos, start: start}
	}
	pos := make([]int32, 0, len(col.Nums))
	for i, f := range col.Nums {
		if f != f {
			return &postings{nan: true}
		}
		if col.Nulls == nil || !col.Nulls[i] {
			pos = append(pos, int32(i))
		}
	}
	slices.SortFunc(pos, func(a, b int32) int {
		if c := cmp.Compare(col.Nums[a], col.Nums[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return &postings{pos: pos}
}
