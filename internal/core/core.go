// Package core is the paper's primary contribution assembled end to end:
// it turns a query log into an interactive interface (Problem 1, §4.5).
// The pipeline parses the log, mines the interaction graph (§4.2, §6),
// maps edges to widgets (§5), and wraps the result in an Interface value
// that can report its cost, compute its closure and expressiveness
// (§4.4), and apply widget states to produce new queries.
package core

import (
	"math/rand"
	"time"

	"repro/internal/ast"
	"repro/internal/interaction"
	"repro/internal/mapper"
	"repro/internal/qlog"
	"repro/internal/treediff"
	"repro/internal/widgets"
)

// Options configure interface generation.
type Options struct {
	Miner   interaction.Options
	Library widgets.Library
}

// DefaultOptions: window=2 + LCA pruning (the paper's recommended
// configuration) and the nine-type widget library.
func DefaultOptions() Options {
	return Options{Miner: interaction.DefaultOptions(), Library: widgets.DefaultLibrary()}
}

// Stats records the pipeline's work and timings, the quantities plotted
// in Figures 11 and 12.
type Stats struct {
	ParseTime   time.Duration
	MineTime    time.Duration
	MapTime     time.Duration
	Comparisons int
	Edges       int
	DiffRecords int
	WidgetCount int
	Cost        float64
}

// Interface is I = (W, q0): a set of widgets and an initial query
// (§4.4). Queries reachable by combinations of widget settings form the
// interface's closure.
type Interface struct {
	Widgets []*mapper.MappedWidget
	Initial *ast.Node
	Graph   *interaction.Graph
	Stats   Stats
}

// Generate parses the log and builds an interface for it: the
// interface of a Miner that is never appended to.
func Generate(log *qlog.Log, opts Options) (*Interface, error) {
	m, err := NewMiner(log, opts)
	if err != nil {
		return nil, err
	}
	return m.iface, nil
}

// Cost is the interface cost C_I (§4.4).
func (i *Interface) Cost() float64 { return mapper.TotalCost(i.Widgets) }

// CanExpress reports whether the interface's closure contains q: there
// must be a combination of widget settings transforming q0 into q.
//
// The check simulates such a combination greedily. Widgets are visited
// in path order (ancestors first); each widget is set to q's subtree at
// its path when that subtree is in the widget's domain (with numeric
// range extrapolation), to "absent" when q lacks the node and the
// domain has the absent option, and otherwise to the domain value with
// the fewest residual differences from q's subtree — the case where an
// ancestor widget swaps in a template that deeper widgets then refine
// (e.g. Figure 5d: toggle to "TOP 1", then slide 1 to 5). The final
// equality check makes the procedure sound: it never reports a query
// outside the closure as expressible.
func (i *Interface) CanExpress(q *ast.Node) bool {
	cur := i.Initial
	if ast.Equal(cur, q) {
		return true
	}
	for _, w := range i.Widgets {
		target := q.At(w.Path)
		curAt := cur.At(w.Path)
		switch {
		case target != nil && w.Domain.Contains(target):
			if !ast.Equal(curAt, target) {
				if next := Apply(cur, w, target); next != nil {
					cur = next
				}
			}
		case target == nil && w.Domain.HasAbsent():
			if curAt != nil {
				if next := cur.DeleteAt(w.Path); next != nil {
					cur = next
				}
			}
		case target != nil && !ast.Equal(curAt, target):
			// Partial progress: swap in the closest domain member and
			// let descendant widgets finish the job.
			best, bestScore := curAt, residual(curAt, target)
			for _, v := range w.Domain.Values() {
				if s := residual(v, target); s < bestScore {
					best, bestScore = v, s
				}
			}
			if !ast.Equal(best, curAt) {
				if next := Apply(cur, w, best); next != nil {
					cur = next
				}
			}
		}
	}
	return ast.Equal(cur, q)
}

// residual scores how far subtree a is from subtree b: 0 when equal,
// otherwise the summed size of the minimal differing subtree pairs
// (plus one per pair). Sizes matter for tie-breaking: replacing an
// empty TOP clause with "TOP 1" is closer to "TOP 5" than leaving it
// empty, even though both are one leaf diff away.
func residual(a, b *ast.Node) int {
	if ast.Equal(a, b) {
		return 0
	}
	if a == nil || b == nil {
		return a.Size() + b.Size() + 1
	}
	score := 0
	for _, d := range treediff.Compare(a, b).Leaves {
		score += d.Left.Size() + d.Right.Size() + 1
	}
	return score
}

// Expressiveness computes |closure ∩ Q| / |Q| for a query log (§4.4).
func (i *Interface) Expressiveness(queries []*ast.Node) float64 {
	if len(queries) == 0 {
		return 1
	}
	n := 0
	for _, q := range queries {
		if i.CanExpress(q) {
			n++
		}
	}
	return float64(n) / float64(len(queries))
}

// Recall is the hold-out expressiveness used throughout §7.2: the
// fraction of unseen queries the generated interface can express.
func (i *Interface) Recall(holdout []*ast.Node) float64 {
	return i.Expressiveness(holdout)
}

// Apply sets one widget to a domain value and returns the transformed
// query: the value subtree is swapped in at the widget's path (§5.3).
// A nil value removes the node at the path (collection deletions); a
// value at a path one past the end of a collection inserts. Returns nil
// when the value is outside the widget's domain.
func Apply(q *ast.Node, w *mapper.MappedWidget, value *ast.Node) *ast.Node {
	if !w.Domain.Contains(value) {
		return nil
	}
	at := q.At(w.Path)
	switch {
	case value == nil:
		if at == nil {
			return q // already absent
		}
		return q.DeleteAt(w.Path)
	case at != nil:
		return q.ReplaceAt(w.Path, value)
	default:
		return q.InsertAt(w.Path, value)
	}
}

// EnumerateClosure enumerates queries in the interface's closure by
// walking the cross product of widget domains applied to q0 (widgets
// are kept in path order, so ancestor settings compose with nested
// descendant settings). Enumeration stops after max yielded queries
// (0 = unlimited) or when yield returns false; q0 is always yielded
// first. The Appendix D precision experiment exhaustively enumerates
// the closure this way.
func (i *Interface) EnumerateClosure(max int, yield func(*ast.Node) bool) {
	count := 0
	var rec func(q *ast.Node, wi int) bool
	rec = func(q *ast.Node, wi int) bool {
		if wi == len(i.Widgets) {
			if max > 0 && count >= max {
				return false
			}
			count++
			return yield(q)
		}
		w := i.Widgets[wi]
		// "Unset": leave the query as-is for this widget.
		if !rec(q, wi+1) {
			return false
		}
		for _, v := range w.Domain.Values() {
			next := Apply(q, w, v)
			if next == nil || ast.Equal(next, q) {
				continue
			}
			if !rec(next, wi+1) {
				return false
			}
		}
		return true
	}
	rec(i.Initial, 0)
}

// SampleClosure yields n queries drawn uniformly-ish from the closure:
// each widget is independently left unset or set to a random domain
// value. Unlike the depth-first EnumerateClosure, whose truncation
// under a cap over-represents the last widgets, sampling gives an
// unbiased estimate of closure-wide properties such as the Appendix D
// precision. Deterministic for a given seed.
func (i *Interface) SampleClosure(n int, seed int64, yield func(*ast.Node) bool) {
	r := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		q := i.Initial
		for _, w := range i.Widgets {
			vals := w.Domain.Values()
			// One extra slot leaves the widget unset occasionally so
			// sparse combinations are represented too.
			pick := r.Intn(len(vals) + 1)
			if pick == len(vals) {
				if r.Intn(4) != 0 {
					pick = r.Intn(len(vals))
				} else {
					continue
				}
			}
			if next := Apply(q, w, vals[pick]); next != nil {
				q = next
			}
		}
		if !yield(q) {
			return
		}
	}
}

// ClosureSize counts distinct queries in the closure, enumerating at
// most max combinations (0 = unlimited). Distinctness is structural.
func (i *Interface) ClosureSize(max int) int {
	seen := ast.NewSet()
	i.EnumerateClosure(max, func(q *ast.Node) bool {
		seen.Add(q)
		return true
	})
	return seen.Len()
}
