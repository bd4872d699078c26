// Package interaction builds the interaction graph of §4.2: queries are
// vertices, and each edge between a pair of queries is labeled with an
// interaction — the set of subtree transformations (diffs) sufficient to
// turn one query into the other. The miner applies the paper's two
// optimizations: sliding-window comparison (§6.1) and LCA pruning of
// ancestor transformations (§6.2).
package interaction

import (
	"repro/internal/ast"
	"repro/internal/treediff"
)

// DiffRecord is a row of the paper's diffs table (Table 1): a subtree
// transformation between a specific pair of queries.
type DiffRecord struct {
	Q1, Q2 int // indices of the incident queries in the log
	treediff.Diff
	IsLeaf bool // leaf-d vs ancestor transformation
}

// Edge is a labeled edge of the interaction graph: the interaction
// t ⊆ diffs that transforms Q1 into Q2.
type Edge struct {
	Q1, Q2 int
	Diffs  []DiffRecord
}

// Graph is the interaction graph G = (V, E).
type Graph struct {
	// Queries are the vertices, parsed ASTs in log order.
	Queries []*ast.Node
	// Edges connect compared query pairs; each edge's Diffs contain the
	// leaf transformations plus (pruned) ancestors for that pair.
	Edges []Edge
}

// Diffs returns all diff records across all edges (the diffs table).
func (g *Graph) Diffs() []DiffRecord {
	out := make([]DiffRecord, 0, g.NumDiffs())
	for _, e := range g.Edges {
		out = append(out, e.Diffs...)
	}
	return out
}

// NumDiffs counts diff records without materializing them.
func (g *Graph) NumDiffs() int {
	n := 0
	for _, e := range g.Edges {
		n += len(e.Diffs)
	}
	return n
}

// Options configure the miner.
type Options struct {
	// WindowSize bounds how far apart two queries may be in the log to
	// be compared (§6.1). 0 or negative means all pairs (O(|Q|²)).
	WindowSize int
	// LCAPrune enables least-common-ancestor pruning of ancestor
	// transformations (§6.2).
	LCAPrune bool
}

// DefaultOptions are the paper's recommended settings: window of 2 with
// LCA pruning, which Appendix B shows preserves the output interface
// while reducing runtime by orders of magnitude.
func DefaultOptions() Options { return Options{WindowSize: 2, LCAPrune: true} }

// Stats reports the miner's work, matching the quantities plotted in
// Figures 11 and 12 (edge counts and mining time are reported by the
// caller via wall-clock around Mine).
type Stats struct {
	Comparisons int
	Edges       int
	DiffRecords int
}

// Mine parses nothing — it takes already-parsed ASTs (one per log entry,
// in log order) and builds the interaction graph: MineAppend onto an
// empty graph, so batch and incremental mining are the same code.
func Mine(queries []*ast.Node, opts Options) (*Graph, Stats) {
	g := &Graph{}
	st := MineAppend(g, queries, opts)
	return g, st
}

// MineAppend grows an existing graph in place: the new queries become
// vertices, and exactly the comparisons batch mining would have added
// for them are performed — pairs (i, j) with j in the appended range
// and i inside the sliding window (every i < j when WindowSize <= 0).
// Appending K entries therefore costs O(K·w) comparisons instead of the
// O(n·w) full re-mine, and a graph grown by repeated MineAppend calls
// is structurally identical to batch-mining the whole log. The returned
// stats cover only this append.
func MineAppend(g *Graph, newQueries []*ast.Node, opts Options) Stats {
	var st Stats
	base := len(g.Queries)
	g.Queries = append(g.Queries, newQueries...)
	win := opts.WindowSize
	for j := base; j < len(g.Queries); j++ {
		lo := 0
		if win > 0 {
			lo = j - win + 1
			if lo < 0 {
				lo = 0
			}
		}
		for i := lo; i < j; i++ {
			st.Comparisons++
			e, ok := compare(g.Queries, i, j, opts.LCAPrune)
			if !ok {
				continue
			}
			g.Edges = append(g.Edges, e)
			st.Edges++
			st.DiffRecords += len(e.Diffs)
		}
	}
	return st
}

func compare(queries []*ast.Node, i, j int, lca bool) (Edge, bool) {
	var res treediff.Result
	if lca {
		res = treediff.CompareLCA(queries[i], queries[j])
	} else {
		res = treediff.Compare(queries[i], queries[j])
	}
	if len(res.Leaves) == 0 {
		return Edge{}, false // identical queries: no interaction needed
	}
	e := Edge{Q1: i, Q2: j}
	for _, d := range res.Leaves {
		e.Diffs = append(e.Diffs, DiffRecord{Q1: i, Q2: j, Diff: d, IsLeaf: true})
	}
	for _, d := range res.Ancestors {
		e.Diffs = append(e.Diffs, DiffRecord{Q1: i, Q2: j, Diff: d})
	}
	return e, true
}
