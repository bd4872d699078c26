package mapper

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/treediff"
	"repro/internal/widgets"
	"repro/internal/workload"
)

// The mapper as it was before merging by edge key: map-based pair sets,
// closure filters, and partitions re-added whole on every append. It is
// kept verbatim as the reference the current mapper must match widget
// for widget (TestMergeMatchesReference and FuzzMerge below).

// refState is State with whole-partition rebuilds.
type refState struct {
	lib   widgets.Library
	parts map[string][]interaction.DiffRecord
	built map[string]*MappedWidget // pre-merge widget per partition
}

func newRefState(lib widgets.Library) *refState {
	return &refState{
		lib:   lib,
		parts: map[string][]interaction.DiffRecord{},
		built: map[string]*MappedWidget{},
	}
}

func (s *refState) Widgets() []*MappedWidget {
	ws := refMerge(s.initialWidgets(), s.lib)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Path.Compare(ws[j].Path) < 0 })
	return ws
}

func refRebuild(lib widgets.Library, path ast.Path, d []interaction.DiffRecord) *MappedWidget {
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

func (s *refState) AddDiffs(ds []interaction.DiffRecord) {
	dirty := map[string]bool{}
	for _, d := range ds {
		key := d.Path.String() + "|" + d.Kind().String()
		s.parts[key] = append(s.parts[key], d)
		dirty[key] = true
	}
	for key := range dirty {
		recs := s.parts[key]
		if w := refRebuild(s.lib, recs[0].Path, recs); w != nil {
			s.built[key] = w
		} else {
			delete(s.built, key)
		}
	}
}

func (s *refState) initialWidgets() []*MappedWidget {
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

func refMerge(ws []*MappedWidget, lib widgets.Library) []*MappedWidget {
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
			next, changed := refMergeStep(wa, desc, lib)
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

func refMergeStep(wa *MappedWidget, wd []*MappedWidget, lib widgets.Library) ([]*MappedWidget, bool) {
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
	ga := refFilter(wa.D, inInter)
	if len(ga) == 0 {
		return nil, false
	}
	anyGd := false
	for _, w := range wd {
		if len(refFilter(w.D, inInter)) > 0 {
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
		remaining := refFilter(w.D, func(d interaction.DiffRecord) bool { return !inInter(d) })
		descWithout[i] = refRebuild(lib, w.Path, remaining)
		sd += costOf(w) - costOf(descWithout[i])
	}
	ancRemaining := refFilter(wa.D, func(d interaction.DiffRecord) bool { return !inInter(d) })
	ancWithout := refRebuild(lib, wa.Path, ancRemaining)
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

func refFilter(ds []interaction.DiffRecord, keep func(interaction.DiffRecord) bool) []interaction.DiffRecord {
	var out []interaction.DiffRecord
	for _, d := range ds {
		if keep(d) {
			out = append(out, d)
		}
	}
	return out
}

// feeder mines a log entry by entry, the way core.Miner does, and hands
// each append's new diff records to the mapper and to the reference.
type feeder struct {
	t      testing.TB
	opts   interaction.Options
	g      *interaction.Graph
	intern *ast.Interner
	state  *State
	ref    *refState
}

func newFeeder(t testing.TB, opts interaction.Options) *feeder {
	lib := widgets.DefaultLibrary()
	return &feeder{t: t, opts: opts, g: &interaction.Graph{}, intern: ast.NewInterner(),
		state: NewState(lib), ref: newRefState(lib)}
}

// add mines entries as one append and returns its new diff records.
func (f *feeder) add(entries []qlog.Entry) []interaction.DiffRecord {
	f.t.Helper()
	qs := make([]*ast.Node, len(entries))
	for i, e := range entries {
		n, err := sqlparser.Parse(e.SQL)
		if err != nil {
			f.t.Fatalf("entry %q: %v", e.SQL, err)
		}
		qs[i] = f.intern.Intern(n)
	}
	prev := len(f.g.Edges)
	interaction.MineAppend(f.g, qs, f.opts)
	var ds []interaction.DiffRecord
	for _, e := range f.g.Edges[prev:] {
		ds = append(ds, e.Diffs...)
	}
	f.state.AddDiffs(ds)
	f.ref.AddDiffs(ds)
	return ds
}

// sameWidgets reports the first difference between the mapper's
// widgets and the reference's: path, type, rendered domain, records in
// order, cost.
func sameWidgets(got, want []*MappedWidget) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d widgets, reference %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case !slices.Equal(g.Path, w.Path):
			return fmt.Sprintf("widget %d at %s, reference at %s", i, g.Path, w.Path)
		case g.Type.Name != w.Type.Name:
			return fmt.Sprintf("widget %s is a %s, reference a %s", g.Path, g.Type.Name, w.Type.Name)
		case renderValues(g.Domain) != renderValues(w.Domain):
			return fmt.Sprintf("widget %s domain %s, reference %s", g.Path, renderValues(g.Domain), renderValues(w.Domain))
		case !sameRecords(g.D, w.D):
			return fmt.Sprintf("widget %s has %d records, reference %d, or they differ", g.Path, len(g.D), len(w.D))
		case g.Cost() != w.Cost():
			return fmt.Sprintf("widget %s costs %v, reference %v", g.Path, g.Cost(), w.Cost())
		}
	}
	return ""
}

func renderValues(d *widgets.Domain) string {
	var b strings.Builder
	for _, v := range d.Values() {
		if v == nil {
			b.WriteString("<absent>;")
			continue
		}
		b.WriteString(v.String())
		b.WriteByte(';')
	}
	return b.String()
}

func sameRecords(a, b []interaction.DiffRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Q1 != y.Q1 || x.Q2 != y.Q2 || x.IsLeaf != y.IsLeaf || !slices.Equal(x.Path, y.Path) ||
			x.Left != y.Left || x.Right != y.Right {
			return false
		}
	}
	return true
}

// checkEdgeOrder fails unless every widget's records ascend by (Q2, Q1).
func checkEdgeOrder(t testing.TB, ws []*MappedWidget) {
	t.Helper()
	for _, w := range ws {
		for i := 1; i < len(w.D); i++ {
			if edgeKey(w.D[i]) < edgeKey(w.D[i-1]) {
				t.Fatalf("widget %s: record %d (q%d->q%d) follows q%d->q%d",
					w.Path, i, w.D[i].Q1, w.D[i].Q2, w.D[i-1].Q1, w.D[i-1].Q2)
			}
		}
	}
}

// TestMergeMatchesReference: merging over edge-ordered records with
// growing partition domains gives exactly the reference's widgets, in
// batch and after every append.
func TestMergeMatchesReference(t *testing.T) {
	batch := []struct {
		name string
		log  *qlog.Log
		opts interaction.Options
	}{
		{"sdss", workload.SDSSFullLog(2000, 1), interaction.DefaultOptions()},
		{"olap", workload.OLAPLog(300, 7), interaction.DefaultOptions()},
		{"adhoc", workload.AdhocLog(300, 7), interaction.DefaultOptions()},
		{"olap/allpairs", workload.OLAPLog(40, 7), interaction.Options{}},
		{"adhoc/allpairs", workload.AdhocLog(40, 7), interaction.Options{}},
	}
	for _, c := range batch {
		t.Run(c.name, func(t *testing.T) {
			f := newFeeder(t, c.opts)
			f.add(c.log.Entries)
			got := f.state.Widgets()
			checkEdgeOrder(t, got)
			if d := sameWidgets(got, f.ref.Widgets()); d != "" {
				t.Fatal(d)
			}
		})
	}
	t.Run("sdss-lookup/appends", func(t *testing.T) {
		const base, appends, per = 2000, 40, 8
		log := workload.SDSSClient(workload.Lookup, 1, base+appends*per)
		f := newFeeder(t, interaction.DefaultOptions())
		f.add(log.Entries[:base])
		for i := 0; i < appends; i++ {
			at := base + i*per
			f.add(log.Entries[at : at+per])
			got := f.state.Widgets()
			checkEdgeOrder(t, got)
			if d := sameWidgets(got, f.ref.Widgets()); d != "" {
				t.Fatalf("append %d: %s", i, d)
			}
		}
	})
}

// TestPartitionsStayInEdgeOrder pins AddDiffs' precondition where the
// mined log meets it: every partition after Map, after appends, and
// every widget a merge step produces keeps its records in edge order.
func TestPartitionsStayInEdgeOrder(t *testing.T) {
	lib := widgets.DefaultLibrary()
	log := workload.SDSSFullLog(400, 3)
	g := mine(t, interaction.DefaultOptions(), log.SQLs()...)
	checkEdgeOrder(t, initialize(g, lib))
	checkEdgeOrder(t, Map(g, lib))

	f := newFeeder(t, interaction.DefaultOptions())
	for at := 0; at < log.Len(); at += 25 {
		f.add(log.Entries[at:min(at+25, log.Len())])
		ws := f.state.initialWidgets()
		checkEdgeOrder(t, ws)
		// Every merge step of the fixpoint, not just its result.
		steps := 0
		for _, wa := range ws {
			var desc []*MappedWidget
			for _, w := range ws {
				if wa.Path.IsStrictPrefixOf(w.Path) {
					desc = append(desc, w)
				}
			}
			if next, changed := mergeStep(wa, desc, lib); changed {
				checkEdgeOrder(t, next)
				steps++
			}
		}
		if steps == 0 {
			t.Fatalf("after %d entries no merge step changed anything", at)
		}
		checkEdgeOrder(t, f.state.Widgets())
	}
}

// fuzzPaths is FuzzMerge's path alphabet: chains of ancestors and
// siblings, so merge steps have descendants to weigh.
var fuzzPaths = []ast.Path{{}, {0}, {0, 1}, {0, 1, 0}, {0, 2}, {1}, {1, 0}, {2, 0, 0}}

// fuzzPool is FuzzMerge's side alphabet, one node per structural class
// plus nil (an added or removed subtree): numbers, strings, a column,
// collections.
func fuzzPool() []*ast.Node {
	in := ast.NewInterner()
	num := func(v string) *ast.Node { return ast.Leaf(ast.TypeNumExpr, v) }
	col := ast.Leaf(ast.TypeColExpr, "x")
	pool := []*ast.Node{nil, num("1"), num("2"), num("7"), num("0x1f"),
		ast.Leaf(ast.TypeStrExpr, "a"), ast.Leaf(ast.TypeStrExpr, "b"), col,
		ast.New(ast.TypeProject, col), ast.New(ast.TypeProject, num("1"), col)}
	for i, n := range pool {
		pool[i] = in.Intern(n)
	}
	return pool
}

// FuzzMerge decodes a diffs table from the input, four bytes a record
// (control, path, left, right), in edge order, cut into appends where
// the control byte says so, and checks the mapper against the
// reference after every append.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 1, 1, 3, 2, 2, 2, 3, 5, 0, 3, 1})
	f.Add([]byte{0, 3, 1, 2, 0, 2, 0, 5, 0, 0, 8, 9, 6, 3, 2, 4, 0, 1, 1, 4, 9, 7, 3, 3, 0, 0, 8, 8})
	f.Add([]byte{2, 5, 5, 6, 1, 6, 6, 7, 6, 0, 9, 8, 1, 4, 1, 3, 5, 2, 2, 1, 0, 1, 0, 0, 10, 7, 4, 2})
	pool := fuzzPool()
	lib := widgets.DefaultLibrary()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ref := NewState(lib), newRefState(lib)
		var chunk []interaction.DiffRecord
		flush := func() {
			s.AddDiffs(chunk)
			ref.AddDiffs(chunk)
			chunk = nil
			got := s.Widgets()
			checkEdgeOrder(t, got)
			if d := sameWidgets(got, ref.Widgets()); d != "" {
				t.Fatal(d)
			}
		}
		q1, q2 := 0, 1
		for ; len(data) >= 4 && q2 < 1<<10; data = data[4:] {
			ctl := data[0]
			// Bits 0-1 step the edge: stay, next i, or next j (i from
			// bits 4-7); bit 2 cuts an append before the record.
			switch ctl & 3 {
			case 1:
				if q1++; q1 == q2 {
					q1, q2 = 0, q2+1
				}
			case 2, 3:
				q2++
				q1 = int(ctl>>4) % q2
			}
			if ctl&4 != 0 && len(chunk) > 0 {
				flush()
			}
			chunk = append(chunk, interaction.DiffRecord{Q1: q1, Q2: q2, IsLeaf: ctl&8 != 0,
				Diff: treediff.Diff{
					Path:  fuzzPaths[int(data[1])%len(fuzzPaths)],
					Left:  pool[int(data[2])%len(pool)],
					Right: pool[int(data[3])%len(pool)],
				}})
		}
		flush()
	})
}
