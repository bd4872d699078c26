// Package store is the versioned storage layer under the serving
// system. A store is a sequence of immutable versions: readers take a
// Snapshot — a *View that satisfies engine.Catalog and never changes —
// and writers publish through AppendRows and MutateRows, each bumping
// the data epoch. A table version is an immutable *engine.Table plus
// its rowids; an append extends the head in place past every older
// version's length, a mutation builds the next version in one pass.
// So a snapshot at epoch E sees exactly the rows live at E, and every
// cache keyed to it (the columnar projection each *engine.Table
// carries included) stays correct by construction.
//
// The package also owns durable persistence (persist.go): a hosted
// interface's (log, dataset, epoch) triple, rowids included, serializes
// to one checksummed snapshot file written with an atomic rename, so a
// SIGKILLed server restores without the original log and replicated
// mutations keep applying.
package store

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// RowUpdate is one row replacement in a mutation: the row identified
// by RowID gets the new values. It is the wire unit of the DML path —
// publications, WAL records and follower applies all carry it.
type RowUpdate struct {
	RowID uint64
	Vals  []engine.Value
}

// TableMutation is one table's share of a mutation publication:
// updates and deletes keyed by rowid. Replication is physical — the
// owner evaluates the DML predicate once and everyone else (followers,
// WAL replay) re-applies the recorded rowid-level operations, so a
// predicate over data that has since moved on can never diverge.
type TableMutation struct {
	Table   string
	Updates []RowUpdate
	Deletes []uint64
}

// rowIDs is a table version's identity: each row's rowid, index-aligned
// with its *engine.Table, and the next rowid to assign.
type rowIDs struct {
	ids    []uint64
	nextID uint64
}

// View is the store at one data epoch: an engine.Catalog over an
// *engine.DB built per publish (unchanged tables shared by pointer),
// plus the epoch and rowids the DML path needs. Views never change and
// are safe for concurrent use.
type View struct {
	epoch uint64
	db    *engine.DB
	rows  map[*engine.Table]rowIDs
}

// Epoch returns the data epoch the view was taken at.
func (v *View) Epoch() uint64 { return v.epoch }

// Table implements engine.Catalog with the engine's name rule.
func (v *View) Table(name string) (*engine.Table, bool) { return v.db.Table(name) }

// Func implements engine.Catalog.
func (v *View) Func(name string) (engine.TableFunc, bool) { return v.db.Func(name) }

// RowIDs returns the stable row identity for each row of Table(name),
// index-aligned — how a predicate match at row i becomes a mutation of
// a concrete rowid.
func (v *View) RowIDs(name string) ([]uint64, bool) {
	t, ok := v.db.Table(name)
	return v.rows[t].ids, ok
}

// checkRows resolves the table and checks every row's column count
// against it.
func (v *View) checkRows(table string, rows [][]engine.Value) (*engine.Table, error) {
	t, ok := v.db.Table(table)
	if !ok {
		return nil, fmt.Errorf("store: unknown table %q", table)
	}
	for i, r := range rows {
		if len(r) != len(t.Cols) {
			return nil, fmt.Errorf("store: table %q has %d columns, row %d has %d",
				t.Name, len(t.Cols), i, len(r))
		}
	}
	return t, nil
}

// Store is the versioned catalog, safe for concurrent use: writers
// are serialized internally, readers never wait. The head version is
// the whole writer state.
type Store struct {
	mu sync.Mutex // serializes writers; readers never take it
	v  atomic.Pointer[View]
}

// FromDB seeds a store from a built database at data epoch 1, with
// fresh sequential rowids. It shares db's rows and functions but never
// writes into db's backing arrays.
func FromDB(db *engine.DB) *Store {
	var tables []TableData
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		ids := make([]uint64, len(t.Rows))
		for i := range ids {
			ids[i] = uint64(i) + 1
		}
		tables = append(tables, TableData{Name: t.Name, Cols: t.Cols, Rows: t.Rows, RowIDs: ids})
	}
	s, _ := seed(db.Clone(), tables, 1) // fresh rowids cannot collide
	return s
}

// maxRowID bounds rowids past any row count, and so MutateRows' bitmap.
const maxRowID = 1 << 32

// seed builds a store at epoch over db's functions and the tables.
// Rows and rowids are capped at their length, so the first append
// copies them instead of writing past another owner's length (a DB's,
// or the store a capture came from).
func seed(db *engine.DB, tables []TableData, epoch uint64) (*Store, error) {
	v := &View{epoch: max(epoch, 1), db: db, rows: map[*engine.Table]rowIDs{}}
	for _, td := range tables {
		if len(td.RowIDs) != len(td.Rows) {
			return nil, fmt.Errorf("store: restore table %q: %d rows but %d rowids; %s",
				td.Name, len(td.Rows), len(td.RowIDs), upgradeHint)
		}
		next := max(td.NextRowID, 1)
		for _, id := range td.RowIDs {
			next = max(next, min(id, maxRowID)+1) // min: no overflow at MaxUint64
		}
		if next > maxRowID {
			return nil, fmt.Errorf("store: restore table %q: rowids reach past %d", td.Name, maxRowID)
		}
		seen := make([]bool, next)
		for _, id := range td.RowIDs {
			if seen[id] {
				return nil, fmt.Errorf("store: restore table %q: duplicate rowid %d", td.Name, id)
			}
			seen[id] = true
		}
		t := &engine.Table{Name: td.Name, Cols: td.Cols, Rows: td.Rows[:len(td.Rows):len(td.Rows)]}
		v.db.AddTable(t)
		v.rows[t] = rowIDs{ids: td.RowIDs[:len(td.RowIDs):len(td.RowIDs)], nextID: next}
	}
	s := &Store{}
	s.v.Store(v)
	return s, nil
}

// Snapshot returns the current version, an immutable engine.Catalog,
// in O(1).
func (s *Store) Snapshot() *View { return s.v.Load() }

// Epoch returns the current data epoch (starts at 1, bumped by every
// publishing write).
func (s *Store) Epoch() uint64 { return s.v.Load().epoch }

// publish installs the next version: cur with table old replaced by t,
// under a bumped data epoch. Callers hold s.mu.
func (s *Store) publish(cur *View, old, t *engine.Table, r rowIDs) uint64 {
	next := &View{epoch: cur.epoch + 1, db: cur.db.Clone(), rows: maps.Clone(cur.rows)}
	next.db.AddTable(t)
	delete(next.rows, old)
	next.rows[t] = r
	s.v.Store(next)
	return next.epoch
}

// ValidateRows checks that the table exists and every row matches its
// column count, publishing nothing — the ingestion path's pre-flight.
func (s *Store) ValidateRows(table string, rows [][]engine.Value) error {
	_, err := s.Snapshot().checkRows(table, rows)
	return err
}

// AppendRows appends rows to the named table and publishes the new
// version under a bumped data epoch, which it returns. The version
// extends the head's rows and rowids in place; older versions end at
// their own length. Every row is appended or none is. The caller must
// not mutate rows afterwards.
func (s *Store) AppendRows(table string, rows [][]engine.Value) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()
	t, err := cur.checkRows(table, rows)
	if err != nil || len(rows) == 0 {
		return cur.epoch, err
	}
	r := cur.rows[t]
	for range rows {
		r.ids = append(r.ids, r.nextID)
		r.nextID++
	}
	return s.publish(cur, t, &engine.Table{Name: t.Name, Cols: t.Cols, Rows: append(t.Rows, rows...)}, r), nil
}

// MutateRows applies one mutation set — updates and deletes keyed by
// rowid — to the named table and publishes the next version, built in
// one pass over the head, under a bumped data epoch, which it returns.
// Untouched rows keep their order, updated rows move to the end in the
// order of each rowid's last update, and a rowid both updated and
// deleted is gone. An unknown rowid or a width mismatch refuses the
// whole set; an empty set publishes nothing.
func (s *Store) MutateRows(table string, updates []RowUpdate, deletes []uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()
	if len(updates) == 0 && len(deletes) == 0 {
		return cur.epoch, nil
	}
	t, ok := cur.db.Table(table)
	if !ok {
		return cur.epoch, fmt.Errorf("store: unknown table %q", table)
	}
	r := cur.rows[t]
	const live, moved, gone = 1, 2, 4
	flags := make([]uint8, r.nextID) // by rowid; every live rowid is below nextID
	for _, id := range r.ids {
		flags[id] = live
	}
	for _, u := range updates {
		if u.RowID >= r.nextID || flags[u.RowID] == 0 {
			return cur.epoch, fmt.Errorf("store: table %q: update of unknown rowid %d", t.Name, u.RowID)
		}
		if len(u.Vals) != len(t.Cols) {
			return cur.epoch, fmt.Errorf("store: table %q has %d columns, update of rowid %d has %d",
				t.Name, len(t.Cols), u.RowID, len(u.Vals))
		}
		flags[u.RowID] |= moved
	}
	for _, id := range deletes {
		if id >= r.nextID || flags[id] == 0 {
			return cur.epoch, fmt.Errorf("store: table %q: delete of unknown rowid %d", t.Name, id)
		}
		flags[id] |= gone
	}
	rows := make([][]engine.Value, 0, len(r.ids)+len(updates))
	ids := make([]uint64, 0, cap(rows))
	for i, id := range r.ids {
		if flags[id] == live {
			rows = append(rows, t.Rows[i])
			ids = append(ids, id)
		}
	}
	// Keep each rowid's last update: walk backwards, then reverse.
	mid := len(rows)
	for i := len(updates) - 1; i >= 0; i-- {
		if id := updates[i].RowID; flags[id] == live|moved {
			flags[id] = live
			rows = append(rows, updates[i].Vals)
			ids = append(ids, id)
		}
	}
	slices.Reverse(rows[mid:])
	slices.Reverse(ids[mid:])
	return s.publish(cur, t, &engine.Table{Name: t.Name, Cols: t.Cols, Rows: rows}, rowIDs{ids, r.nextID}), nil
}

// AddFunc registers a table-valued function — the restore path uses it
// to re-attach UDFs a snapshot file cannot carry. A function is not
// data: the new version keeps the data epoch, which it returns.
func (s *Store) AddFunc(name string, fn engine.TableFunc) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()
	next := &View{epoch: cur.epoch, db: cur.db.Clone(), rows: cur.rows}
	next.db.AddFunc(name, fn)
	s.v.Store(next)
	return next.epoch
}

// RowCount returns the current row count of the named table.
func (s *Store) RowCount(table string) (int, bool) {
	t, ok := s.Snapshot().Table(table)
	if !ok {
		return 0, false
	}
	return t.NumRows(), true
}
