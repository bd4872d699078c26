// Secondary indexes over the version arena. An index on a column is a
// sorted run of (key, *RowVersion) entries plus an append-only tail:
// writers (under the store lock) append new versions' entries to the
// tail and occasionally fold the tail into a freshly-allocated sorted
// run, while every Publish captures an immutable (sorted, tail-prefix)
// snapshot into the view. Epoch-chain correctness needs no extra
// bookkeeping: a pinned view's snapshot physically cannot contain
// entries appended after its publish, and entries for versions retired
// at or before the view's epoch are dropped by the same VisibleAt
// filter materialization uses — so an index lookup at epoch E sees
// exactly the rows a scan at E sees.
//
// Keys normalize values into engine.Equal's equivalence classes:
// anything numerically coercible (numbers, numeric strings, bools)
// keys by its float64; everything else keys by its string form. NULLs
// are not indexed (SQL equality never matches them) and NaN is
// excluded on both sides (engine.Compare treats NaN as equal to every
// number, which no sorted structure can serve — those lookups fall
// back to the scan kernels).
package mvcc

import (
	"sort"
	"strings"

	"repro/internal/engine"
)

type ixEntry struct {
	num bool
	f   float64
	s   string
	rv  *RowVersion
}

// ixKeyOf normalizes a value into its index key, reporting ok=false
// for the unindexable cases (NULL, NaN).
func ixKeyOf(v engine.Value) (ixEntry, bool) {
	if v.IsNull() {
		return ixEntry{}, false
	}
	if f, ok := v.AsNumber(); ok {
		if f != f { // NaN
			return ixEntry{}, false
		}
		return ixEntry{num: true, f: f}, true
	}
	return ixEntry{s: v.String()}, true
}

func ixLess(a, b ixEntry) bool {
	if a.num != b.num {
		return a.num // numeric keys sort before string keys
	}
	if a.num {
		return a.f < b.f
	}
	return a.s < b.s
}

func ixEq(a, b ixEntry) bool {
	if a.num != b.num {
		return false
	}
	if a.num {
		return a.f == b.f
	}
	return a.s == b.s
}

// colIndex is the writer-side index state. All mutation happens under
// the store's writer lock; `sorted` is immutable once any view has
// snapshotted it (merges allocate a fresh slice).
type colIndex struct {
	pos    int // column position in Vals
	sorted []ixEntry
	tail   []ixEntry
}

// ixSnap is the immutable per-view snapshot of one column's index.
type ixSnap struct {
	sorted []ixEntry
	tail   []ixEntry
}

func (ix *colIndex) rebuild(versions []*RowVersion) {
	ix.sorted = ix.sorted[:0:0]
	ix.tail = nil
	for _, rv := range versions {
		if e, ok := ixKeyOf(rv.Vals[ix.pos]); ok {
			e.rv = rv
			ix.sorted = append(ix.sorted, e)
		}
	}
	sort.SliceStable(ix.sorted, func(i, j int) bool { return ixLess(ix.sorted[i], ix.sorted[j]) })
}

// maybeMerge folds the tail into a new sorted run once it is worth it.
// Small tails stay linear: lookups scan them after the binary search.
func (ix *colIndex) maybeMerge() {
	if len(ix.tail) < 64 || len(ix.tail)*4 < len(ix.sorted) {
		return
	}
	tail := append([]ixEntry(nil), ix.tail...)
	sort.SliceStable(tail, func(i, j int) bool { return ixLess(tail[i], tail[j]) })
	merged := make([]ixEntry, 0, len(ix.sorted)+len(tail))
	i, j := 0, 0
	for i < len(ix.sorted) && j < len(tail) {
		if ixLess(tail[j], ix.sorted[i]) {
			merged = append(merged, tail[j])
			j++
		} else {
			merged = append(merged, ix.sorted[i])
			i++
		}
	}
	merged = append(merged, ix.sorted[i:]...)
	merged = append(merged, tail[j:]...)
	ix.sorted = merged
	ix.tail = nil
}

// EnableIndex builds (or keeps) a secondary index on the named column,
// covering every version already in the arena. Returns false when the
// column does not exist. Called with the store's writer lock held.
func (t *Table) EnableIndex(col string) bool {
	pos := -1
	for i, c := range t.Cols {
		if strings.EqualFold(c, col) {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	key := strings.ToLower(t.Cols[pos])
	if t.indexes == nil {
		t.indexes = map[string]*colIndex{}
	}
	if _, ok := t.indexes[key]; ok {
		return true
	}
	ix := &colIndex{pos: pos}
	ix.rebuild(t.versions)
	t.indexes[key] = ix
	return true
}

// indexAdd inserts one freshly-appended version into every index tail.
func (t *Table) indexAdd(rv *RowVersion) {
	for _, ix := range t.indexes {
		if e, ok := ixKeyOf(rv.Vals[ix.pos]); ok {
			e.rv = rv
			ix.tail = append(ix.tail, e)
		}
	}
}

// snapIndexes captures the per-view index snapshots at publish time,
// merging tails that have grown past the threshold first. Called with
// the store's writer lock held.
func (t *Table) snapIndexes() map[string]ixSnap {
	if len(t.indexes) == 0 {
		return nil
	}
	out := make(map[string]ixSnap, len(t.indexes))
	for k, ix := range t.indexes {
		ix.maybeMerge()
		out[k] = ixSnap{sorted: ix.sorted, tail: ix.tail[:len(ix.tail):len(ix.tail)]}
	}
	return out
}

// Lookup returns the positions (ascending indices into Table()'s rows)
// whose indexed column satisfies SQL equality with key at this view's
// epoch, or ok=false when no index covers the column or the key cannot
// be served (NaN). A NULL key is served as an empty result — equality
// with NULL is never true.
func (v *View) Lookup(col string, key engine.Value) ([]int32, bool) {
	if len(v.indexes) == 0 {
		return nil, false
	}
	snap, ok := v.indexes[strings.ToLower(col)]
	if !ok {
		return nil, false
	}
	if key.IsNull() {
		return nil, true
	}
	want, ok := ixKeyOf(key)
	if !ok {
		return nil, false
	}
	pos := v.posIndex()
	var out []int32
	lo := sort.Search(len(snap.sorted), func(i int) bool { return !ixLess(snap.sorted[i], want) })
	for i := lo; i < len(snap.sorted) && ixEq(snap.sorted[i], want); i++ {
		if rv := snap.sorted[i].rv; rv.VisibleAt(v.epoch) {
			if p, ok := pos[rv.RowID]; ok {
				out = append(out, p)
			}
		}
	}
	for _, e := range snap.tail {
		if ixEq(e, want) && e.rv.VisibleAt(v.epoch) {
			if p, ok := pos[e.rv.RowID]; ok {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// posIndex lazily builds the rowid -> row position map over the
// materialized rows. Concurrent first calls may build it twice; the
// CAS keeps exactly one.
func (v *View) posIndex() map[uint64]int32 {
	if m := v.pos.Load(); m != nil {
		return *m
	}
	ids := v.materialize().ids
	m := make(map[uint64]int32, len(ids))
	for i, id := range ids {
		m[id] = int32(i)
	}
	v.pos.CompareAndSwap(nil, &m)
	return *v.pos.Load()
}

// Columnar returns the columnar projection of the view's visible rows,
// built at most once per view (per data epoch) and shared by every
// concurrent reader — the engine.ColumnarProvider plumbing for store
// snapshots.
func (v *View) Columnar() *engine.ColumnarTable {
	if c := v.col.Load(); c != nil {
		return c
	}
	ct := engine.BuildColumnar(v.Table())
	v.col.CompareAndSwap(nil, ct)
	return v.col.Load()
}
