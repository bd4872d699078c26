package treediff

import "repro/internal/ast"

// Apply interprets d as a function d(q) = q' (§4.2): a replacement
// swaps the subtree at d.Path for d.Right; an insertion (Left == nil)
// inserts d.Right at the path's child index; a deletion (Right == nil)
// removes the child at the path. Returns nil when the path is invalid
// for q.
func (d Diff) Apply(q *ast.Node) *ast.Node {
	switch {
	case d.Left == nil:
		return q.InsertAt(d.Path, d.Right)
	case d.Right == nil:
		return q.DeleteAt(d.Path)
	default:
		return q.ReplaceAt(d.Path, d.Right)
	}
}

// ApplyAll applies a set of leaf diffs produced by Compare(q, ·) to q.
// Diffs are applied in descending path order (and reverse sequence
// order on ties) so that index-shifting insertions and deletions do not
// invalidate the remaining paths. Returns nil if any application fails.
func ApplyAll(q *ast.Node, ds []Diff) *ast.Node {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by (path desc, sequence desc); n is tiny.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			cmp := ds[a].Path.Compare(ds[b].Path)
			if cmp > 0 || (cmp == 0 && a > b) {
				break
			}
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	out := q
	for _, i := range idx {
		out = ds[i].Apply(out)
		if out == nil {
			return nil
		}
	}
	return out
}
