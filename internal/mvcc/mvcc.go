// Package mvcc is the versioned row storage under internal/store: every
// row of a table is a chain of RowVersions carrying (rowid,
// begin-epoch, end-epoch) visibility metadata, so a snapshot taken at
// data epoch E sees exactly the rows that were live at E. Appends,
// updates and deletes all publish in O(rows-touched) — an UPDATE or
// DELETE retires the old version by stamping its end epoch and (for
// updates) appends a replacement version, never rewriting the table —
// while readers pinned to older epochs keep serving their exact row
// set race-free: Begin and Vals are immutable after append, and the
// end epoch moves exactly once, from "live" to an epoch strictly
// greater than any epoch a pinned reader filters by.
//
// The split mirrors internal/store's reader/writer discipline:
//
//   - Table is the writer-side state (version arena, live-row index,
//     rowid allocator). All its methods are called with the store's
//     writer lock held.
//   - View is the immutable per-epoch read handle the store publishes.
//     Materialize lazily flattens the visible versions into a plain
//     *engine.Table (cached, built at most once per view), so the
//     query engine keeps executing against ordinary tables and the
//     epoch-keyed result caches above stay correct by construction.
//     Columnar caches the view's engine.ColumnarTable the same way;
//     the `=` postings the engine builds on it share its lifetime, so
//     the row store maintains no index of its own.
package mvcc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// RowVersion is one immutable version of one row. Begin, RowID and
// Vals never change after the version is appended; end is stamped at
// most once (zero means "still live") with an epoch strictly greater
// than the begin epoch, which is what makes concurrent visibility
// checks against old epochs race-free.
type RowVersion struct {
	RowID uint64         // stable row identity across versions
	Begin uint64         // first epoch this version is visible at
	Vals  []engine.Value // the row payload; immutable

	end atomic.Uint64 // 0 = live; otherwise first epoch NOT visible at
}

// Live reports whether the version has not been retired.
func (rv *RowVersion) Live() bool { return rv.end.Load() == 0 }

// VisibleAt reports whether the version is part of the row set at
// epoch e: born at or before e, and not retired at or before e.
func (rv *RowVersion) VisibleAt(e uint64) bool {
	if rv.Begin > e {
		return false
	}
	end := rv.end.Load()
	return end == 0 || end > e
}

// retire stamps the end epoch. Called only by the writer (under the
// store lock), and only once per version.
func (rv *RowVersion) retire(epoch uint64) { rv.end.Store(epoch) }

// Update is one row replacement in a mutation set: the row identified
// by RowID gets a new version holding Vals.
type Update struct {
	RowID uint64
	Vals  []engine.Value
}

// Table is the writer-side versioned table. Every method is called
// with the owning store's writer lock held; readers never touch a
// Table — they hold Views.
type Table struct {
	Name string
	Cols []string

	versions []*RowVersion          // the arena, in append order
	live     map[uint64]*RowVersion // rowid -> current live version
	nextID   uint64                 // next rowid to assign
	mutGen   uint64                 // bumped by every Mutate publish
	head     *View                  // most recently published view
}

// NewTable returns an empty writer table. RowIDs start at 1.
func NewTable(name string, cols []string) *Table {
	return &Table{Name: name, Cols: cols, live: map[uint64]*RowVersion{}, nextID: 1}
}

// Seed returns a writer table pre-populated with rows that are all
// live from epoch `begin` on, carrying the given rowids — the restore
// path, where identity must round-trip so replicated mutations keep
// applying after a crash. ids may be nil (fresh sequential ids are
// assigned); nextID/mutGen of zero derive sane defaults.
func Seed(name string, cols []string, rows [][]engine.Value, ids []uint64, nextID, mutGen, begin uint64) (*Table, error) {
	t := NewTable(name, cols)
	if ids != nil && len(ids) != len(rows) {
		return nil, fmt.Errorf("mvcc: table %q: %d rows but %d rowids", name, len(rows), len(ids))
	}
	var maxID uint64
	for i, r := range rows {
		id := uint64(i) + 1
		if ids != nil {
			id = ids[i]
		}
		if id > maxID {
			maxID = id
		}
		rv := &RowVersion{RowID: id, Begin: begin, Vals: r}
		if _, dup := t.live[id]; dup {
			return nil, fmt.Errorf("mvcc: table %q: duplicate rowid %d", name, id)
		}
		t.versions = append(t.versions, rv)
		t.live[id] = rv
	}
	t.nextID = maxID + 1
	if nextID > t.nextID {
		t.nextID = nextID
	}
	t.mutGen = mutGen
	return t, nil
}

// NextID returns the next rowid the table would assign.
func (t *Table) NextID() uint64 { return t.nextID }

// MutGen returns the mutation generation: how many Mutate publishes
// the table has absorbed. Snapshots carry it so a restored table
// resumes the count.
func (t *Table) MutGen() uint64 { return t.mutGen }

// Append adds rows as new live versions beginning at epoch, assigning
// sequential rowids, and returns the assigned ids. RowIDs are assigned
// in row order, so the owner, its followers and the restore path all
// converge on the same identities from the same publication stream.
func (t *Table) Append(rows [][]engine.Value, epoch uint64) []uint64 {
	ids := make([]uint64, len(rows))
	for i, r := range rows {
		id := t.nextID
		t.nextID++
		rv := &RowVersion{RowID: id, Begin: epoch, Vals: r}
		t.versions = append(t.versions, rv)
		t.live[id] = rv
		ids[i] = id
	}
	return ids
}

// Mutate applies one mutation set at epoch: every update retires the
// row's current version and appends a replacement (same rowid, new
// begin), every delete just retires. Cost is O(rows touched) — the
// arena and the untouched rows are never copied. A rowid that has no
// live version is an error (on the owner that's a caller bug; on a
// follower it means the copy diverged), and nothing is applied
// partially: validation runs before the first retire.
func (t *Table) Mutate(updates []Update, deletes []uint64, epoch uint64) error {
	for _, u := range updates {
		if _, ok := t.live[u.RowID]; !ok {
			return fmt.Errorf("mvcc: table %q: update of unknown rowid %d", t.Name, u.RowID)
		}
		if len(u.Vals) != len(t.Cols) {
			return fmt.Errorf("mvcc: table %q has %d columns, update of rowid %d has %d",
				t.Name, len(t.Cols), u.RowID, len(u.Vals))
		}
	}
	for _, id := range deletes {
		if _, ok := t.live[id]; !ok {
			return fmt.Errorf("mvcc: table %q: delete of unknown rowid %d", t.Name, id)
		}
	}
	for _, u := range updates {
		old := t.live[u.RowID]
		old.retire(epoch)
		rv := &RowVersion{RowID: u.RowID, Begin: epoch, Vals: u.Vals}
		t.versions = append(t.versions, rv)
		t.live[u.RowID] = rv
	}
	for _, id := range deletes {
		t.live[id].retire(epoch)
		delete(t.live, id)
	}
	t.mutGen++
	return nil
}

// Publish caps the arena at its current length and returns the
// immutable view of the table at epoch. Append fast-path: when the
// previous head is already materialized and the publish was pure
// appends (rowsAdded > 0, same mutGen), the new view's materialization
// is precomputed by extending the head's flattened rows in O(batch) —
// the same backing-array prefix sharing the pre-MVCC store used —
// instead of leaving a lazy O(live-rows) rebuild for the next reader.
func (t *Table) Publish(epoch uint64, rowsAdded int) *View {
	v := &View{
		name:     t.Name,
		cols:     t.Cols,
		epoch:    epoch,
		versions: t.versions[:len(t.versions):len(t.versions)],
	}
	if prev := t.head; prev != nil && rowsAdded > 0 && prev.mutGen == t.mutGen {
		if m := prev.mat.Load(); m != nil {
			added := t.versions[len(t.versions)-rowsAdded:]
			rows := m.tab.Rows
			ids := m.ids
			for _, rv := range added {
				rows = append(rows, rv.Vals)
				ids = append(ids, rv.RowID)
			}
			v.mat.Store(&matState{
				tab: &engine.Table{Name: t.Name, Cols: t.Cols, Rows: rows},
				ids: ids,
			})
		}
	}
	v.mutGen = t.mutGen
	t.head = v
	return v
}

// Compact folds fully-superseded versions out of the arena: a fresh
// versions slice keeps only the live versions (same *RowVersion
// structs — retirement stamps already written stay visible to old
// views, which hold their own slice of the old arena). Relative order
// of live rows is preserved, so the visible row order of the head
// epoch is unchanged and persistence captures are byte-identical
// before and after. No epoch or mutation-generation bump: compaction
// is pure memory reclamation, invisible to readers and replicas.
// Returns how many retired versions were dropped.
func (t *Table) Compact() int {
	if len(t.versions) == len(t.live) {
		return 0
	}
	kept := make([]*RowVersion, 0, len(t.live))
	for _, rv := range t.versions {
		if rv.Live() {
			kept = append(kept, rv)
		}
	}
	dropped := len(t.versions) - len(kept)
	t.versions = kept
	return dropped
}

// matState is a view's cached materialization: the flattened visible
// rows plus the rowid aligned with each row. Built at most once per
// view and published atomically, so Table() and RowIDs() always agree
// on row order.
type matState struct {
	tab *engine.Table
	ids []uint64
}

// View is one immutable published table version: the arena prefix as
// of the publish, filtered by visibility at the view's epoch. Views
// are safe for concurrent use; materialization is lazy with
// double-checked locking.
type View struct {
	name     string
	cols     []string
	epoch    uint64
	mutGen   uint64
	versions []*RowVersion

	mu  sync.Mutex // serializes the one-time materialization
	mat atomic.Pointer[matState]
	col atomic.Pointer[engine.ColumnarTable] // lazy columnar projection
}

// Table returns the flattened visible rows as a plain *engine.Table —
// the drop-in execution target for engine.Exec. The first call per
// view pays one O(visible-rows) scan; later calls return the cached
// table. Callers must treat the result as immutable.
func (v *View) Table() *engine.Table { return v.materialize().tab }

// RowIDs returns the rowid for each row of Table(), index-aligned —
// how the DML path maps "row i matched the predicate" to a stable
// identity that followers and the WAL replay can re-apply.
func (v *View) RowIDs() []uint64 { return v.materialize().ids }

func (v *View) materialize() *matState {
	if m := v.mat.Load(); m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m := v.mat.Load(); m != nil {
		return m
	}
	rows := make([][]engine.Value, 0, len(v.versions))
	ids := make([]uint64, 0, len(v.versions))
	for _, rv := range v.versions {
		if rv.VisibleAt(v.epoch) {
			rows = append(rows, rv.Vals)
			ids = append(ids, rv.RowID)
		}
	}
	m := &matState{tab: &engine.Table{Name: v.name, Cols: v.cols, Rows: rows}, ids: ids}
	v.mat.Store(m)
	return m
}

// Columnar returns the columnar projection of the view's visible rows,
// built at most once per view (per data epoch) and shared by every
// concurrent reader — the engine.ColumnarProvider plumbing for store
// snapshots. The projection's `=` postings live and die with it.
func (v *View) Columnar() *engine.ColumnarTable {
	if c := v.col.Load(); c != nil {
		return c
	}
	ct := engine.BuildColumnar(v.Table())
	v.col.CompareAndSwap(nil, ct)
	return v.col.Load()
}
