// Package mapper maps interaction-graph edges to interface widgets — the
// graph-contraction heuristic of §5. Initialization partitions the diffs
// table by path and instantiates the cheapest accepting widget type per
// partition (Algorithms 1–2); Merging then iteratively eliminates the
// redundancy between ancestor widgets and their descendants
// (Algorithm 3) until the interface cost stops decreasing.
package mapper

import (
	"sort"
	"strconv"

	"repro/internal/ast"
	"repro/internal/interaction"
	"repro/internal/widgets"
)

// MappedWidget is a widget together with the diff records that
// initialized it (w.D ⊆ diffs in the paper's notation); the mapper needs
// w.D to compute the incident-vertex sets during merging.
type MappedWidget struct {
	*widgets.Widget
	D []interaction.DiffRecord
}

// rebuild instantiates a widget over d via pickWidget, building its
// domain from scratch, and returns nil when d is empty (the widget
// disappears). Merging uses it for what remains of a widget once the
// shared records are taken out.
func rebuild(lib widgets.Library, path ast.Path, d []interaction.DiffRecord) *MappedWidget {
	if len(d) == 0 {
		return nil
	}
	dom := widgets.NewDomain()
	for _, rec := range d {
		dom.Add(rec.Left)
		dom.Add(rec.Right)
	}
	w := lib.Pick(path, dom)
	if w == nil {
		return nil
	}
	return &MappedWidget{Widget: w, D: d}
}

// Map runs the full heuristic over an interaction graph and returns the
// selected widgets in deterministic (path) order.
func Map(g *interaction.Graph, lib widgets.Library) []*MappedWidget {
	s := NewState(lib)
	s.AddDiffs(g.Diffs())
	return s.Widgets()
}

// MapWithoutMerge runs initialization only (Algorithm 1), skipping the
// merging phase — the ablation baseline: every (path, kind) partition
// keeps its own widget, so the interface is maximally redundant.
func MapWithoutMerge(g *interaction.Graph, lib widgets.Library) []*MappedWidget {
	ws := initialize(g, lib)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Path.Compare(ws[j].Path) < 0 })
	return ws
}

// initialize implements Algorithm 1 with the finer partitioning the
// paper mentions as an alternative (§5.1): diffs are partitioned by
// (path, primitive kind) rather than path alone. Kind-pure partitions
// keep numeric transformations extrapolatable by sliders even when a
// heterogeneous log also swaps, say, a column reference in and out at
// the same path (which would otherwise poison the domain's kind).
func initialize(g *interaction.Graph, lib widgets.Library) []*MappedWidget {
	s := NewState(lib)
	s.AddDiffs(g.Diffs())
	return s.initialWidgets()
}

// State is the mapper's retained partition state: the (path,
// kind)-partitioned diffs table, one Domain per partition that only
// grows, and the widget instantiated for each partition. AddDiffs costs
// O(K) domain adds for K new records plus, per partition that gained a
// member, one domain copy in O(distinct members). Merging still runs
// over the full widget set, so its cost is linear in the log, but it
// scans edge-ordered records and builds no pair sets; only the domains
// of what a merge step leaves of a widget are built anew. Batch mapping
// is the same State given the whole diffs table in one call (Map), so
// Widgets() after any sequence of appends equals Map over the
// accumulated records.
//
// A State is not safe for concurrent use; it belongs to one miner.
type State struct {
	lib   widgets.Library
	parts map[string]*partition
	built map[string]*MappedWidget // pre-merge widget per partition
	key   []byte                   // AddDiffs' key buffer
}

// partition is one (path, kind) slice of the diffs table and the domain
// of both sides of its records.
type partition struct {
	key   string // "<path>|<kind>", the State's map key
	recs  []interaction.DiffRecord
	dom   *widgets.Domain
	dirty bool // touched by the AddDiffs call in progress
}

// NewState returns an empty mapping state over the widget library.
func NewState(lib widgets.Library) *State {
	if lib == nil {
		lib = widgets.DefaultLibrary()
	}
	return &State{
		lib:   lib,
		parts: map[string]*partition{},
		built: map[string]*MappedWidget{},
	}
}

// AddDiffs appends new diff records to the partition state: it adds
// only the new records' sides to their partitions' domains and
// re-instantiates only the touched partitions. A touched partition's
// widget gets a copy of the domain, so every widget handed out earlier
// keeps its domain.
//
// Precondition: ds continues edge order. Across all AddDiffs calls the
// records arrive ascending by (Q2, Q1) — the order MineAppend emits
// them in, since it adds edges with j ascending, then i ascending, and
// an append only adds larger j. Every partition, and every subsequence
// of one, is then in edge order too, which mergeStep relies on to merge
// by edge key instead of by map.
func (s *State) AddDiffs(ds []interaction.DiffRecord) {
	var touched []*partition
	for _, d := range ds {
		s.key = appendKey(s.key[:0], d)
		p := s.parts[string(s.key)]
		if p == nil {
			p = &partition{key: string(s.key), dom: widgets.NewDomain()}
			s.parts[p.key] = p
		}
		if !p.dirty {
			p.dirty = true
			touched = append(touched, p)
		}
		p.recs = append(p.recs, d)
		p.dom.Add(d.Left)
		p.dom.Add(d.Right)
	}
	for _, p := range touched {
		p.dirty = false
		if prev := s.built[p.key]; prev != nil && prev.Domain.Len() == p.dom.Len() {
			// No new member: the domain, hence the picked widget, is unchanged.
			s.built[p.key] = &MappedWidget{Widget: prev.Widget, D: p.recs}
			continue
		}
		if w := s.lib.Pick(p.recs[0].Path, p.dom.Clone()); w != nil {
			s.built[p.key] = &MappedWidget{Widget: w, D: p.recs}
		} else {
			delete(s.built, p.key)
		}
	}
}

// appendKey appends d's partition key, "<path>|<kind>" as Path.String
// and Kind.String render them.
func appendKey(b []byte, d interaction.DiffRecord) []byte {
	if len(d.Path) == 0 {
		b = append(b, '/')
	}
	for i, v := range d.Path {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, '|')
	return append(b, d.Kind().String()...)
}

// initialWidgets assembles the pre-merge widget list in sorted
// partition-key order — exactly what batch initialize produces.
func (s *State) initialWidgets() []*MappedWidget {
	keys := make([]string, 0, len(s.built))
	for key := range s.built {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ws := make([]*MappedWidget, 0, len(keys))
	for _, key := range keys {
		ws = append(ws, s.built[key])
	}
	return ws
}

// Widgets runs the merge phase over the current partitions and returns
// the interface's widgets in path order, like Map. The cached per-
// partition widgets are not mutated (merge builds replacements), so
// Widgets may be called after every append.
func (s *State) Widgets() []*MappedWidget {
	ws := merge(s.initialWidgets(), s.lib)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Path.Compare(ws[j].Path) < 0 })
	return ws
}

// merge implements the iterative application of Algorithm 3: for every
// ancestor widget and the set of its descendant widgets, reassign the
// overlapping diff records to whichever side yields the larger cost
// reduction, and repeat until the total interface cost stops improving.
func merge(ws []*MappedWidget, lib widgets.Library) []*MappedWidget {
	for {
		improved := false
		// Contract bottom-up: consider the deepest ancestor widgets
		// first so each merge step compares one chain level (wa against
		// its immediate-ish descendants) instead of the root against
		// everything. Ties in depth break deterministically by path.
		sort.Slice(ws, func(i, j int) bool {
			if len(ws[i].Path) != len(ws[j].Path) {
				return len(ws[i].Path) > len(ws[j].Path)
			}
			return ws[i].Path.Compare(ws[j].Path) < 0
		})
		for _, wa := range ws {
			var desc []*MappedWidget
			for _, w := range ws {
				if wa.Path.IsStrictPrefixOf(w.Path) {
					desc = append(desc, w)
				}
			}
			if len(desc) == 0 {
				continue
			}
			next, changed := mergeStep(wa, desc, lib)
			if !changed {
				continue
			}
			improved = true
			// Replace wa and desc in ws with the merge result.
			old := map[*MappedWidget]bool{wa: true}
			for _, d := range desc {
				old[d] = true
			}
			var out []*MappedWidget
			for _, w := range ws {
				if !old[w] {
					out = append(out, w)
				}
			}
			out = append(out, next...)
			ws = out
			break // restart scan over the updated widget set
		}
		if !improved {
			return ws
		}
	}
}

// mergeStep is Algorithm 3 for one (ancestor, descendants) pair. It
// returns the replacement widgets and whether anything changed (i.e.
// whether removing the overlap from one side reduced total cost).
//
// The overlap ("the edges that connect the same pairs of vertices", the
// orange region of the paper's venn diagram) is computed at the level
// of query pairs: a diff record is overlapping when the other side also
// has a record for the same (q1, q2) edge. The paper's vertex-set
// intersection is a coarser proxy that degenerates under all-pairs
// mining, where root-level ancestors touch every vertex and the
// intersection becomes the whole graph.
//
// Every widget's records are in edge order (State.AddDiffs), so the
// overlap is a sorted intersection and each side's remaining records
// come from one pass: no sorting and no maps.
func mergeStep(wa *MappedWidget, wd []*MappedWidget, lib widgets.Library) ([]*MappedWidget, bool) {
	shared := sharedEdges(wa.D, wd)
	if len(shared) == 0 {
		return nil, false
	}
	// Lines 7-10's checks for an empty side are dead: shared ⊆ edges(wa) ∩ edges(wd).

	// Lines 11-17: cost reduction of each option.
	costOf := func(w *MappedWidget) float64 {
		if w == nil {
			return 0
		}
		return w.Cost()
	}
	var sd float64
	descWithout := make([]*MappedWidget, len(wd))
	for i, w := range wd {
		descWithout[i] = without(w, shared, lib)
		sd += costOf(w) - costOf(descWithout[i])
	}
	ancWithout := without(wa, shared, lib)
	sa := costOf(wa) - costOf(ancWithout)

	// Lines 19-25: keep the option with the larger reduction. Nothing
	// changes when neither option reduces cost.
	if sa <= 0 && sd <= 0 {
		return nil, false
	}
	var out []*MappedWidget
	if sa > sd {
		if ancWithout != nil {
			out = append(out, ancWithout)
		}
		out = append(out, wd...)
	} else {
		out = append(out, wa)
		for _, w := range descWithout {
			if w != nil {
				out = append(out, w)
			}
		}
	}
	return out, true
}

// edgeKey orders diff records by edge, (Q2, Q1): the order MineAppend
// emits them in.
func edgeKey(d interaction.DiffRecord) uint64 {
	return uint64(d.Q2)<<32 | uint64(uint32(d.Q1))
}

// sharedEdges returns the edges, ascending and without repeats, that a
// has records for and so does at least one descendant: one sorted
// intersection of a's keys with a k-way merge of the descendants'.
func sharedEdges(a []interaction.DiffRecord, wd []*MappedWidget) []uint64 {
	h := make(edgeHeap, 0, len(wd))
	for _, w := range wd {
		if len(w.D) > 0 {
			h = append(h, w.D)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var shared []uint64
	for i := 0; i < len(a) && len(h) > 0; {
		ka, kd := edgeKey(a[i]), edgeKey(h[0][0])
		switch {
		case ka < kd:
			i++
		case kd < ka:
			h.next()
		default:
			if n := len(shared); n == 0 || shared[n-1] != ka {
				shared = append(shared, ka)
			}
			i++
		}
	}
	return shared
}

// edgeHeap is a min-heap of record lists by their first record's edge.
type edgeHeap [][]interaction.DiffRecord

// next drops the smallest list's first record.
func (h *edgeHeap) next() {
	s := *h
	if s[0] = s[0][1:]; len(s[0]) == 0 {
		s[0] = s[len(s)-1]
		s = s[:len(s)-1]
		*h = s
	}
	s.down(0)
}

func (h edgeHeap) down(i int) {
	for {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && edgeKey(h[c][0]) < edgeKey(h[m][0]) {
				m = c
			}
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// without returns w over its records outside the shared edges: w itself
// when it has none of them, nil when nothing remains. Both w.D and
// shared are in edge order, so one pass counts what remains and a
// second copies it.
func without(w *MappedWidget, shared []uint64, lib widgets.Library) *MappedWidget {
	n, c := 0, edgeCursor{shared: shared}
	for _, d := range w.D {
		if !c.has(edgeKey(d)) {
			n++
		}
	}
	if n == len(w.D) {
		return w
	}
	rest, c := make([]interaction.DiffRecord, 0, n), edgeCursor{shared: shared}
	for _, d := range w.D {
		if !c.has(edgeKey(d)) {
			rest = append(rest, d)
		}
	}
	return rebuild(lib, w.Path, rest)
}

// edgeCursor answers membership in an ascending edge list for keys
// asked in ascending order, in one pass over the list.
type edgeCursor struct {
	shared []uint64
	j      int
}

func (c *edgeCursor) has(k uint64) bool {
	for c.j < len(c.shared) && c.shared[c.j] < k {
		c.j++
	}
	return c.j < len(c.shared) && c.shared[c.j] == k
}

// TotalCost is the interface cost C_I = Σ c(w) (§4.4).
func TotalCost(ws []*MappedWidget) float64 {
	c := 0.0
	for _, w := range ws {
		c += w.Cost()
	}
	return c
}
