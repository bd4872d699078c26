// Package treediff computes subtree transformations between pairs of
// query ASTs (§4.2). It implements an ordered tree matching that
// preserves ancestor and left-to-right sibling relationships: equal
// subtrees are anchored with an LCS pass per child list, unmatched
// regions are paired in order, and recursion descends only through
// label-equal pairs. The minimal differing subtree pairs are "leaf
// diffs"; every ancestor pair on the way to a leaf diff is also a valid
// transformation, and LCA pruning (§6.2) keeps only the ancestors that
// can express more than a single leaf diff.
package treediff

import (
	"fmt"

	"repro/internal/ast"
)

// Diff is one subtree transformation d = (p, t1, t2): replacing the
// subtree at path p (t1, as found in the left query) with t2 yields the
// corresponding region of the right query. Additions and deletions set
// Left or Right to nil, matching the paper's null convention.
type Diff struct {
	Path  ast.Path
	Left  *ast.Node
	Right *ast.Node
}

// Kind returns the primitive kind of the transformation as reported in
// Table 1: "num" when both sides are numeric terminals, "str" when both
// sides are string-castable terminals, "tree" otherwise (including
// additions and deletions).
func (d Diff) Kind() ast.Kind {
	if d.Left == nil || d.Right == nil {
		return ast.KindTree
	}
	kl, kr := ast.KindOf(d.Left), ast.KindOf(d.Right)
	if kl == ast.KindTree || kr == ast.KindTree {
		return ast.KindTree
	}
	if kl == ast.KindNumber && kr == ast.KindNumber {
		return ast.KindNumber
	}
	return ast.KindString
}

// String renders the diff like a row of the paper's Table 1.
func (d Diff) String() string {
	l, r := "null", "null"
	if d.Left != nil {
		l = d.Left.String()
	}
	if d.Right != nil {
		r = d.Right.String()
	}
	return fmt.Sprintf("d{p:%s %s -> %s (%s)}", d.Path, l, r, d.Kind())
}

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

// Result holds the transformations between one ordered pair of ASTs.
type Result struct {
	// Leaves are the minimal differing subtree pairs.
	Leaves []Diff
	// Ancestors are the non-leaf transformations: the subtree pairs on
	// every path from the root to a leaf diff (the root pair — replacing
	// the whole query — is always among them when any diff exists).
	Ancestors []Diff
}

// Compare diffs the ordered pair (left, right) and returns the leaf
// transformations plus all ancestor transformations.
func Compare(left, right *ast.Node) Result {
	c := &comparer{}
	c.rec(left, right, ast.Path{})
	return Result{Leaves: c.leaves, Ancestors: c.ancestors}
}

// CompareLCA is Compare with least-common-ancestor pruning applied: the
// ancestor list keeps only subtree pairs that are the LCA of at least
// two leaf diffs (§6.2). Leaf diffs are always kept.
func CompareLCA(left, right *ast.Node) Result {
	c := &comparer{}
	c.rec(left, right, ast.Path{})
	return Result{Leaves: c.leaves, Ancestors: pruneLCA(c.leaves, c.ancestors)}
}

// pruneLCA keeps the ancestors whose path is the longest common prefix
// of at least one pair of distinct leaf-diff paths.
func pruneLCA(leaves, ancestors []Diff) []Diff {
	if len(leaves) < 2 {
		return nil
	}
	keep := make(map[string]bool)
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			keep[ast.CommonPrefix(leaves[i].Path, leaves[j].Path).String()] = true
		}
	}
	var out []Diff
	for _, a := range ancestors {
		if keep[a.Path.String()] {
			out = append(out, a)
		}
	}
	return out
}

type comparer struct {
	leaves    []Diff
	ancestors []Diff
}

// rec walks label-equal node pairs; it returns true when any diff was
// emitted in the subtree, in which case the caller records an ancestor
// transformation for the current pair.
func (c *comparer) rec(a, b *ast.Node, p ast.Path) bool {
	if ast.Equal(a, b) {
		return false
	}
	if a == nil || b == nil || !ast.LabelEqual(a, b) {
		// Minimal differing subtree: a replacement (or add/delete).
		c.leaves = append(c.leaves, Diff{Path: p, Left: a, Right: b})
		return true
	}
	// Labels equal, children differ: align the child lists.
	pairs := alignChildren(a.Children, b.Children)
	changed := false
	for _, pr := range pairs {
		switch {
		case pr.a >= 0 && pr.b >= 0:
			if c.rec(a.Children[pr.a], b.Children[pr.b], p.Child(pr.a)) {
				changed = true
			}
		case pr.a >= 0:
			c.leaves = append(c.leaves, Diff{Path: p.Child(pr.a), Left: a.Children[pr.a]})
			changed = true
		default:
			// Insertion: recorded at the insertion index in the left
			// tree's coordinate space.
			c.leaves = append(c.leaves, Diff{Path: p.Child(pr.ins), Right: b.Children[pr.b]})
			changed = true
		}
	}
	if changed {
		c.ancestors = append(c.ancestors, Diff{Path: p, Left: a, Right: b})
	}
	return changed
}

// pair is one aligned step: indices into the two child lists (-1 for a
// gap). For insertions (a == -1), ins is the index in the left list
// before which the right child is inserted.
type pair struct{ a, b, ins int }

// alignChildren aligns two ordered child lists. Deep-equal children are
// anchored with a longest-common-subsequence pass; within each gap,
// children are paired in order (the ordered-matching backtracking step),
// and any excess becomes deletions or insertions.
func alignChildren(as, bs []*ast.Node) []pair {
	n, m := len(as), len(bs)
	// LCS on deep equality, hashes as a fast pre-filter.
	ha := make([]ast.Hash, n)
	hb := make([]ast.Hash, m)
	for i, x := range as {
		ha[i] = ast.HashOf(x)
	}
	for j, y := range bs {
		hb[j] = ast.HashOf(y)
	}
	dp := make([][]int16, n+1)
	for i := range dp {
		dp[i] = make([]int16, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if ha[i] == hb[j] && ast.Equal(as[i], bs[j]) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var out []pair
	i, j := 0, 0
	var gapA, gapB []int
	flush := func(insAt int) {
		k := 0
		for ; k < len(gapA) && k < len(gapB); k++ {
			out = append(out, pair{a: gapA[k], b: gapB[k]})
		}
		for ; k < len(gapA); k++ {
			out = append(out, pair{a: gapA[k], b: -1})
		}
		for ; k < len(gapB); k++ {
			out = append(out, pair{a: -1, b: gapB[k], ins: insAt})
		}
		gapA, gapB = gapA[:0], gapB[:0]
	}
	for i < n && j < m {
		if ha[i] == hb[j] && ast.Equal(as[i], bs[j]) {
			flush(i)
			out = append(out, pair{a: i, b: j})
			i++
			j++
			continue
		}
		if dp[i+1][j] >= dp[i][j+1] {
			gapA = append(gapA, i)
			i++
		} else {
			gapB = append(gapB, j)
			j++
		}
	}
	for ; i < n; i++ {
		gapA = append(gapA, i)
	}
	for ; j < m; j++ {
		gapB = append(gapB, j)
	}
	flush(n)
	return out
}
