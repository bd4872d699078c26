package treediff

import (
	"repro/internal/ast"
)

// This file implements the Zhang-Shasha ordered tree edit distance
// (the classic algorithm surveyed in Bille [2], which the paper cites
// for its tree matching). The distance is the substrate for the query
// clustering preprocessing the paper proposes in §3.3 ("modeling
// semantic distances between queries ... to cluster similar queries"):
// see internal/sessions.
//
// Unit costs: 1 per inserted node, 1 per deleted node, 1 per relabeled
// node (label = type + attributes), 0 for matches.

// EditDistance returns the ordered tree edit distance between two ASTs.
// A nil tree has distance Size(other) to any tree (all inserts).
func EditDistance(a, b *ast.Node) int {
	if a == nil {
		return b.Size()
	}
	if b == nil {
		return a.Size()
	}
	ta := newTedTree(a)
	tb := newTedTree(b)
	return zhangShasha(ta, tb)
}

// NormalizedDistance maps the edit distance into [0, 1] by dividing by
// the larger tree size — 0 for identical trees, 1 when nothing aligns.
func NormalizedDistance(a, b *ast.Node) float64 {
	sa, sb := a.Size(), b.Size()
	max := sa
	if sb > max {
		max = sb
	}
	if max == 0 {
		return 0
	}
	return float64(EditDistance(a, b)) / float64(max)
}

// tedTree is the post-order representation Zhang-Shasha works on.
type tedTree struct {
	nodes []*ast.Node // post-order
	lmld  []int       // leftmost leaf descendant index per node (post-order)
	keys  []int       // key roots, ascending
}

func newTedTree(root *ast.Node) *tedTree {
	t := &tedTree{}
	// A subtree's leftmost leaf is the first node post-order visits in
	// it, so its index is known on entry. It is kept per position, not
	// per node: one pointer may occur at several positions of a tree
	// whose equal subtrees are shared.
	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		lm := len(t.nodes)
		for _, c := range n.Children {
			walk(c)
		}
		t.nodes = append(t.nodes, n)
		t.lmld = append(t.lmld, lm)
	}
	walk(root)
	// Key roots: nodes with no left sibling on the path — i.e. for each
	// distinct leftmost-leaf value, the highest (last in post-order)
	// node having it.
	seen := map[int]int{}
	for i := range t.nodes {
		seen[t.lmld[i]] = i
	}
	for _, i := range seen {
		t.keys = append(t.keys, i)
	}
	sortInts(t.keys)
	return t
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func relabelCost(a, b *ast.Node) int {
	if ast.LabelEqual(a, b) {
		return 0
	}
	return 1
}

// zhangShasha computes the tree edit distance between two post-order
// trees using the standard keyroot decomposition.
func zhangShasha(t1, t2 *tedTree) int {
	n, m := len(t1.nodes), len(t2.nodes)
	td := make([][]int, n)
	for i := range td {
		td[i] = make([]int, m)
	}
	for _, i := range t1.keys {
		for _, j := range t2.keys {
			treeDist(t1, t2, i, j, td)
		}
	}
	return td[n-1][m-1]
}

// treeDist fills td[i][j] for the key-root pair (i, j) via the forest
// distance recurrence.
func treeDist(t1, t2 *tedTree, i, j int, td [][]int) {
	li, lj := t1.lmld[i], t2.lmld[j]
	// Forest distance matrix over subforest prefixes; index 0 = empty.
	rows := i - li + 2
	cols := j - lj + 2
	fd := make([][]int, rows)
	for r := range fd {
		fd[r] = make([]int, cols)
	}
	for r := 1; r < rows; r++ {
		fd[r][0] = fd[r-1][0] + 1 // delete
	}
	for c := 1; c < cols; c++ {
		fd[0][c] = fd[0][c-1] + 1 // insert
	}
	for r := 1; r < rows; r++ {
		for c := 1; c < cols; c++ {
			di := li + r - 1 // node index in t1
			dj := lj + c - 1 // node index in t2
			if t1.lmld[di] == li && t2.lmld[dj] == lj {
				// Both prefixes are whole trees rooted at di/dj.
				d := min3(
					fd[r-1][c]+1,
					fd[r][c-1]+1,
					fd[r-1][c-1]+relabelCost(t1.nodes[di], t2.nodes[dj]),
				)
				fd[r][c] = d
				td[di][dj] = d
			} else {
				fd[r][c] = min3(
					fd[r-1][c]+1,
					fd[r][c-1]+1,
					fd[t1.lmld[di]-li][t2.lmld[dj]-lj]+td[di][dj],
				)
			}
		}
	}
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
