// Package mapper maps interaction-graph edges to interface widgets — the
// graph-contraction heuristic of §5. Initialization partitions the diffs
// table by path and instantiates the cheapest accepting widget type per
// partition (Algorithms 1–2); Merging then iteratively eliminates the
// redundancy between ancestor widgets and their descendants
// (Algorithm 3) until the interface cost stops decreasing.
package mapper

import (
	"sort"

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

// rebuild re-instantiates the widget for the current w.D via pickWidget
// and returns nil when w.D is empty (the widget disappears).
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
// kind)-partitioned diffs table plus the widget instantiated for each
// partition. It keeps the partitions across AddDiffs calls so only
// partitions touched by new diff records are re-instantiated (merging
// still runs over the full widget set). Batch mapping is the same
// State given the whole diffs table in one call (Map), so Widgets()
// after any sequence of appends equals Map over the accumulated
// records.
//
// A State is not safe for concurrent use; it belongs to one miner.
type State struct {
	lib   widgets.Library
	parts map[string][]interaction.DiffRecord
	built map[string]*MappedWidget // pre-merge widget per partition
}

// NewState returns an empty mapping state over the widget library.
func NewState(lib widgets.Library) *State {
	if lib == nil {
		lib = widgets.DefaultLibrary()
	}
	return &State{
		lib:   lib,
		parts: map[string][]interaction.DiffRecord{},
		built: map[string]*MappedWidget{},
	}
}

// AddDiffs appends new diff records to the partition state and
// re-instantiates only the touched partitions.
func (s *State) AddDiffs(ds []interaction.DiffRecord) {
	dirty := map[string]bool{}
	for _, d := range ds {
		key := d.Path.String() + "|" + d.Kind().String()
		s.parts[key] = append(s.parts[key], d)
		dirty[key] = true
	}
	for key := range dirty {
		recs := s.parts[key]
		if w := rebuild(s.lib, recs[0].Path, recs); w != nil {
			s.built[key] = w
		} else {
			delete(s.built, key)
		}
	}
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
func mergeStep(wa *MappedWidget, wd []*MappedWidget, lib widgets.Library) ([]*MappedWidget, bool) {
	pairsA := map[[2]int]bool{}
	for _, d := range wa.D {
		pairsA[[2]int{d.Q1, d.Q2}] = true
	}
	pairsD := map[[2]int]bool{}
	for _, w := range wd {
		for _, d := range w.D {
			pairsD[[2]int{d.Q1, d.Q2}] = true
		}
	}
	shared := map[[2]int]bool{}
	for p := range pairsA {
		if pairsD[p] {
			shared[p] = true
		}
	}
	if len(shared) == 0 {
		return nil, false
	}

	// Lines 7-8: the overlapping diff records.
	inInter := func(d interaction.DiffRecord) bool { return shared[[2]int{d.Q1, d.Q2}] }
	ga := filter(wa.D, inInter)
	if len(ga) == 0 {
		return nil, false
	}
	anyGd := false
	for _, w := range wd {
		if len(filter(w.D, inInter)) > 0 {
			anyGd = true
			break
		}
	}
	if !anyGd {
		return nil, false
	}

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
		remaining := filter(w.D, func(d interaction.DiffRecord) bool { return !inInter(d) })
		descWithout[i] = rebuild(lib, w.Path, remaining)
		sd += costOf(w) - costOf(descWithout[i])
	}
	ancRemaining := filter(wa.D, func(d interaction.DiffRecord) bool { return !inInter(d) })
	ancWithout := rebuild(lib, wa.Path, ancRemaining)
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

func filter(ds []interaction.DiffRecord, keep func(interaction.DiffRecord) bool) []interaction.DiffRecord {
	var out []interaction.DiffRecord
	for _, d := range ds {
		if keep(d) {
			out = append(out, d)
		}
	}
	return out
}

// TotalCost is the interface cost C_I = Σ c(w) (§4.4).
func TotalCost(ws []*MappedWidget) float64 {
	c := 0.0
	for _, w := range ws {
		c += w.Cost()
	}
	return c
}
