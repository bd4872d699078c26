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
// of at least one pair of distinct leaf-diff paths. It filters ancestors
// in place.
func pruneLCA(leaves, ancestors []Diff) []Diff {
	if len(leaves) < 2 {
		return nil
	}
	out := ancestors[:0]
	for _, a := range ancestors {
		if isLCA(a.Path, leaves) {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// isLCA reports whether p is the longest common prefix of some pair of
// leaf paths: two leaves under p that part ways at p itself, either
// because one of them ends there or because they continue into
// different children.
func isLCA(p ast.Path, leaves []Diff) bool {
	// first is the child of p the first leaf under p continues into, -1
	// when that leaf is at p itself.
	first, seen := 0, false
	for _, l := range leaves {
		if !p.IsPrefixOf(l.Path) {
			continue
		}
		next := -1
		if len(l.Path) > len(p) {
			next = l.Path[len(p)]
		}
		if !seen {
			first, seen = next, true
			continue
		}
		if next == -1 || next != first {
			return true
		}
	}
	return false
}

type comparer struct {
	leaves    []Diff
	ancestors []Diff
	// dp and eq are alignChildren's tables, one flat buffer each, grown
	// as needed and reused at every level of the walk.
	dp []int16
	eq []bool
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
	changed := false
	for _, pr := range c.alignChildren(a.Children, b.Children) {
		switch {
		case pr.equal:
			// An LCS anchor: the subtrees are already known equal.
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
// before which the right child is inserted. equal marks an LCS anchor.
type pair struct {
	a, b, ins int
	equal     bool
}

// alignChildren aligns two ordered child lists. Deep-equal children are
// anchored with a longest-common-subsequence pass; within each gap,
// children are paired in order (the ordered-matching backtracking step),
// and any excess becomes deletions or insertions.
func (c *comparer) alignChildren(as, bs []*ast.Node) []pair {
	n, m := len(as), len(bs)
	// LCS on deep equality, memoized hashes as a fast pre-filter. dp is
	// the (n+1)x(m+1) suffix table, row-major; eq[i*m+j] records that
	// as[i] and bs[j] are equal.
	w := m + 1
	if need := (n + 1) * w; cap(c.dp) < need {
		c.dp = make([]int16, need)
	}
	if need := n * m; cap(c.eq) < need {
		c.eq = make([]bool, need)
	}
	dp, eq := c.dp[:(n+1)*w], c.eq[:n*m]
	for j := 0; j <= m; j++ {
		dp[n*w+j] = 0
	}
	for i := n - 1; i >= 0; i-- {
		dp[i*w+m] = 0
		ha := ast.HashOf(as[i])
		for j := m - 1; j >= 0; j-- {
			e := ha == ast.HashOf(bs[j]) && ast.Equal(as[i], bs[j])
			eq[i*m+j] = e
			switch down, right := dp[(i+1)*w+j], dp[i*w+j+1]; {
			case e:
				dp[i*w+j] = dp[(i+1)*w+j+1] + 1
			case down >= right:
				dp[i*w+j] = down
			default:
				dp[i*w+j] = right
			}
		}
	}
	// Between two anchors the unmatched children form one contiguous run
	// on each side, as[ga:i] and bs[gb:j]; flush pairs them in order.
	out := make([]pair, 0, max(n, m))
	i, j, ga, gb := 0, 0, 0, 0
	flush := func() {
		k := 0
		for ; ga+k < i && gb+k < j; k++ {
			out = append(out, pair{a: ga + k, b: gb + k})
		}
		for ; ga+k < i; k++ {
			out = append(out, pair{a: ga + k, b: -1})
		}
		for ; gb+k < j; k++ {
			out = append(out, pair{a: -1, b: gb + k, ins: i})
		}
	}
	for i < n && j < m {
		if eq[i*m+j] {
			flush()
			out = append(out, pair{a: i, b: j, equal: true})
			i++
			j++
			ga, gb = i, j
			continue
		}
		if dp[(i+1)*w+j] >= dp[i*w+j+1] {
			i++
		} else {
			j++
		}
	}
	i, j = n, m
	flush()
	return out
}
