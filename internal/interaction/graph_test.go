package interaction

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

func parseAll(t *testing.T, sqls ...string) []*ast.Node {
	t.Helper()
	out := make([]*ast.Node, len(sqls))
	for i, s := range sqls {
		out[i] = sqlparser.MustParse(s)
	}
	return out
}

var sdssLike = []string{
	"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
	"SELECT * FROM XCRedshift WHERE specObjId = 0x199",
	"SELECT * FROM SpecLineIndex WHERE specObjId = 0x3",
	"SELECT * FROM XCRedshift WHERE specObjId = 0x2a",
	"SELECT * FROM SpecLineIndex WHERE specObjId = 0x77",
	"SELECT * FROM SpecLineIndex WHERE specObjId = 0x78",
}

// TestWindowReducesComparisons pins §6.1: the sliding window reduces
// comparisons from O(|Q|²) to O(|Q|·n_win).
func TestWindowReducesComparisons(t *testing.T) {
	qs := parseAll(t, sdssLike...)
	_, full := Mine(qs, Options{WindowSize: 0})
	if full.Comparisons != 15 { // C(6,2)
		t.Fatalf("all-pairs comparisons = %d, want 15", full.Comparisons)
	}
	_, win := Mine(qs, Options{WindowSize: 2})
	if win.Comparisons != 5 {
		t.Fatalf("window=2 comparisons = %d, want 5", win.Comparisons)
	}
	_, win3 := Mine(qs, Options{WindowSize: 3})
	if win3.Comparisons != 9 { // 4*2 + 1
		t.Fatalf("window=3 comparisons = %d, want 9", win3.Comparisons)
	}
}

// TestLCAPruneShrinksGraph pins §6.2/Fig 11: pruning reduces diff
// records without touching leaf diffs.
func TestLCAPruneShrinksGraph(t *testing.T) {
	qs := parseAll(t, sdssLike...)
	gFull, _ := Mine(qs, Options{WindowSize: 0, LCAPrune: false})
	gLCA, _ := Mine(qs, Options{WindowSize: 0, LCAPrune: true})
	if gLCA.NumDiffs() >= gFull.NumDiffs() {
		t.Fatalf("LCA pruning did not shrink: %d vs %d", gLCA.NumDiffs(), gFull.NumDiffs())
	}
	leaves := func(g *Graph) int {
		n := 0
		for _, d := range g.Diffs() {
			if d.IsLeaf {
				n++
			}
		}
		return n
	}
	if leaves(gFull) != leaves(gLCA) {
		t.Fatalf("pruning must preserve leaf diffs: %d vs %d", leaves(gFull), leaves(gLCA))
	}
}

func TestIdenticalQueriesNoEdge(t *testing.T) {
	qs := parseAll(t, "SELECT a FROM t", "SELECT a FROM t", "SELECT a FROM t")
	g, st := Mine(qs, Options{WindowSize: 0})
	if len(g.Edges) != 0 || st.Edges != 0 {
		t.Fatalf("identical queries should produce no edges, got %d", len(g.Edges))
	}
}

func TestEdgeEndpointsAndLeafFlags(t *testing.T) {
	qs := parseAll(t, sdssLike[:3]...)
	g, _ := Mine(qs, Options{WindowSize: 0})
	if len(g.Edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(g.Edges))
	}
	for _, e := range g.Edges {
		if e.Q1 >= e.Q2 || e.Q2 >= len(qs) {
			t.Fatalf("bad edge endpoints %d -> %d", e.Q1, e.Q2)
		}
		hasLeaf := false
		for _, d := range e.Diffs {
			if d.Q1 != e.Q1 || d.Q2 != e.Q2 {
				t.Fatalf("diff endpoints %d->%d disagree with edge %d->%d", d.Q1, d.Q2, e.Q1, e.Q2)
			}
			if d.IsLeaf {
				hasLeaf = true
			}
		}
		if !hasLeaf {
			t.Fatal("every edge must carry at least one leaf diff")
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.WindowSize != 2 || !o.LCAPrune {
		t.Fatalf("defaults = %+v", o)
	}
}
