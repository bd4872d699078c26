// Package store is the versioned storage layer under the serving
// system: an MVCC row store (internal/mvcc) behind a copy-on-write
// catalog that turns the "immutable after build" DB into a sequence of
// immutable versions. Readers take a Snapshot — a *View that satisfies
// engine.Catalog and never changes — while writers publish through
// AppendRows and MutateRows, each bumping the data epoch without
// copying row data: appends extend the version arena, updates and
// deletes retire row versions by stamping an end epoch and (for
// updates) appending a replacement, so every publish is O(rows
// touched), never O(table). A snapshot taken at epoch E sees exactly
// the rows live at E, forever — the Berkholz-style
// answering-under-updates discipline PR 2 applied to interfaces,
// applied to the data itself: queries always run against an immutable
// snapshot, so result caches keyed to a snapshot stay correct by
// construction.
//
// The package also owns durable persistence (persist.go): a hosted
// interface's (log, dataset, epoch) triple serializes to a single
// checksummed snapshot file written with an atomic rename, so a
// SIGKILLed server restores without the original log. Row identities
// (rowids) persist too, so replicated mutations keep applying across
// crash/restore.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/mvcc"
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

// version is one immutable store state: the published table views plus
// the function catalog at one data epoch.
type version struct {
	view View
}

// View is an immutable snapshot of the store at one data epoch: it
// satisfies engine.Catalog (name matching is case-insensitive and
// accepts the final component of qualified names, like engine.DB), and
// additionally exposes the epoch and per-table rowids the DML path
// needs. Views are safe for concurrent use and never change — old
// views keep serving their exact row set while the store moves on.
type View struct {
	epoch  uint64
	tables map[string]*mvcc.View // keyed by lowercase name
	funcs  map[string]engine.TableFunc
}

// Epoch returns the data epoch the view was taken at.
func (v *View) Epoch() uint64 { return v.epoch }

func (v *View) lookup(name string) (*mvcc.View, bool) {
	t, ok := v.tables[strings.ToLower(name)]
	if !ok {
		// Accept the final path component of qualified names (dbo.X).
		parts := strings.Split(name, ".")
		t, ok = v.tables[strings.ToLower(parts[len(parts)-1])]
	}
	return t, ok
}

// Table implements engine.Catalog: the flattened visible rows of the
// named table at this view's epoch.
func (v *View) Table(name string) (*engine.Table, bool) {
	t, ok := v.lookup(name)
	if !ok {
		return nil, false
	}
	return t.Table(), true
}

// Func implements engine.Catalog.
func (v *View) Func(name string) (engine.TableFunc, bool) {
	f, ok := v.funcs[strings.ToLower(name)]
	if !ok {
		parts := strings.Split(name, ".")
		f, ok = v.funcs[strings.ToLower(parts[len(parts)-1])]
	}
	return f, ok
}

// RowIDs returns the stable row identity for each row of Table(name),
// index-aligned — how a predicate match at row i becomes a mutation of
// a concrete rowid.
func (v *View) RowIDs(name string) ([]uint64, bool) {
	t, ok := v.lookup(name)
	if !ok {
		return nil, false
	}
	return t.RowIDs(), true
}

// Columnar implements engine.ColumnarProvider: the cached columnar
// projection of the named table's visible rows, built at most once per
// table per data epoch (it lives on the underlying mvcc.View, which is
// shared by every snapshot of the same epoch) and dropped automatically
// when the epoch moves on — the same lifetime as every other epoch-
// keyed cache above the store, so hot-swap, failover and WAL replay
// need no extra invalidation.
func (v *View) Columnar(name string) (*engine.ColumnarTable, bool) {
	t, ok := v.lookup(name)
	if !ok {
		return nil, false
	}
	return t.Columnar(), true
}

// TableNames lists the view's tables (lowercased) in sorted order.
func (v *View) TableNames() []string {
	out := make([]string, 0, len(v.tables))
	for n := range v.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Store is the MVCC versioned catalog. It is safe for concurrent use:
// any number of readers call Snapshot while writers call
// AppendRows/MutateRows/AddFunc; writers are serialized internally.
type Store struct {
	mu     sync.Mutex // serializes writers; readers never take it
	tables map[string]*mvcc.Table
	v      atomic.Pointer[version]
}

// FromDB seeds a store from a built database. The store takes over the
// write path: the caller must not mutate db (or its tables) afterwards
// — exactly the contract the serving layer already imposed, with
// AppendRows/MutateRows now providing the sanctioned ways to change
// tables. Rows get fresh sequential rowids.
func FromDB(db *engine.DB) *Store {
	s := &Store{tables: map[string]*mvcc.Table{}}
	views := map[string]*mvcc.View{}
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		wt, err := mvcc.Seed(t.Name, t.Cols, t.Rows, nil, 0, 0, 1)
		if err != nil { // unreachable: nil ids cannot collide
			panic(err)
		}
		s.tables[name] = wt
		views[name] = wt.Publish(1, 0)
	}
	funcs := map[string]engine.TableFunc{}
	for _, name := range db.FuncNames() {
		fn, _ := db.Func(name)
		funcs[name] = fn
	}
	s.v.Store(&version{view: View{epoch: 1, tables: views, funcs: funcs}})
	return s
}

// seed builds a store directly from persisted table state (rows with
// their saved rowids plus the rowid allocator and mutation generation)
// at the given epoch — the restore path.
func seed(tables []TableData, epoch uint64) (*Store, error) {
	if epoch == 0 {
		epoch = 1
	}
	s := &Store{tables: map[string]*mvcc.Table{}}
	views := map[string]*mvcc.View{}
	for _, td := range tables {
		if len(td.RowIDs) != len(td.Rows) {
			return nil, fmt.Errorf("store: restore table %q: %d rows but %d rowids; %s",
				td.Name, len(td.Rows), len(td.RowIDs), upgradeHint)
		}
		wt, err := mvcc.Seed(td.Name, td.Cols, td.Rows, td.RowIDs, td.NextRowID, td.MutGen, epoch)
		if err != nil {
			return nil, fmt.Errorf("store: restore table %q: %w", td.Name, err)
		}
		key := strings.ToLower(td.Name)
		s.tables[key] = wt
		views[key] = wt.Publish(epoch, 0)
	}
	s.v.Store(&version{view: View{epoch: epoch, tables: views, funcs: map[string]engine.TableFunc{}}})
	return s, nil
}

// Snapshot returns the current store version: an immutable *View that
// satisfies engine.Catalog and is therefore a drop-in execution
// target. Snapshots are O(1): no rows are copied.
func (s *Store) Snapshot() *View { return &s.v.Load().view }

// Epoch returns the current data epoch (starts at 1, bumped by every
// publishing write).
func (s *Store) Epoch() uint64 { return s.v.Load().view.epoch }

// lookupWriter resolves a table name against the writer map with the
// same name rules the catalog uses. Callers hold s.mu.
func (s *Store) lookupWriter(name string) (*mvcc.Table, string, bool) {
	key := strings.ToLower(name)
	t, ok := s.tables[key]
	if !ok {
		parts := strings.Split(name, ".")
		key = strings.ToLower(parts[len(parts)-1])
		t, ok = s.tables[key]
	}
	return t, key, ok
}

// publish installs a new version that replaces exactly one table's
// view, sharing everything else. Callers hold s.mu.
func (s *Store) publish(epoch uint64, key string, tv *mvcc.View) {
	cur := &s.v.Load().view
	tables := make(map[string]*mvcc.View, len(cur.tables)+1)
	for k, v := range cur.tables {
		tables[k] = v
	}
	tables[key] = tv
	s.v.Store(&version{view: View{epoch: epoch, tables: tables, funcs: cur.funcs}})
}

// ValidateRows checks that the table exists and every row matches its
// column count, without publishing anything — the cheap pre-flight the
// ingestion path runs before buffering and before landing a
// publication. It reads the writer state, so it never materializes a
// view.
func (s *Store) ValidateRows(table string, rows [][]engine.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, err := s.checkRowsLocked(table, rows)
	return err
}

// checkRowsLocked resolves the writer table and checks every row's
// column count against it. Callers hold s.mu.
func (s *Store) checkRowsLocked(table string, rows [][]engine.Value) (*mvcc.Table, string, error) {
	t, key, ok := s.lookupWriter(table)
	if !ok {
		return nil, "", fmt.Errorf("store: unknown table %q", table)
	}
	for i, r := range rows {
		if len(r) != len(t.Cols) {
			return nil, "", fmt.Errorf("store: table %q has %d columns, row %d has %d",
				t.Name, len(t.Cols), i, len(r))
		}
	}
	return t, key, nil
}

// AppendRows appends rows to the named table and publishes a new
// version under a bumped data epoch. The append is copy-on-write at
// the catalog level: new row versions extend the table's arena
// (readers of older snapshots only ever see their own epoch's rows),
// and only the view map is duplicated. Either every row is appended or
// none is (validation runs before publishing). The caller must not
// mutate rows afterwards. Returns the new data epoch.
func (s *Store) AppendRows(table string, rows [][]engine.Value) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()
	t, key, err := s.checkRowsLocked(table, rows)
	if err != nil || len(rows) == 0 {
		return cur.view.epoch, err
	}
	epoch := cur.view.epoch + 1
	t.Append(rows, epoch)
	s.publish(epoch, key, t.Publish(epoch, len(rows)))
	return epoch, nil
}

// MutateRows applies one mutation set — row updates and deletes keyed
// by rowid — to the named table and publishes a new version under a
// bumped data epoch. Updates retire the row's current version and
// append a replacement; deletes just retire: O(rows touched), never a
// table rewrite, and every snapshot taken before the publish keeps
// serving its exact pre-mutation rows. Either the whole set applies or
// none of it (validation runs before the first retire). Returns the
// new data epoch; an empty set publishes nothing.
func (s *Store) MutateRows(table string, updates []RowUpdate, deletes []uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.v.Load()
	if len(updates) == 0 && len(deletes) == 0 {
		return cur.view.epoch, nil
	}
	t, key, ok := s.lookupWriter(table)
	if !ok {
		return cur.view.epoch, fmt.Errorf("store: unknown table %q", table)
	}
	ups := make([]mvcc.Update, len(updates))
	for i, u := range updates {
		ups[i] = mvcc.Update{RowID: u.RowID, Vals: u.Vals}
	}
	epoch := cur.view.epoch + 1
	if err := t.Mutate(ups, deletes, epoch); err != nil {
		return cur.view.epoch, err
	}
	s.publish(epoch, key, t.Publish(epoch, 0))
	return epoch, nil
}

// AddFunc registers a table-valued function under a new version —
// the restore path uses it to re-attach UDFs a snapshot file cannot
// carry.
func (s *Store) AddFunc(name string, fn engine.TableFunc) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := &s.v.Load().view
	epoch := cur.epoch + 1
	funcs := make(map[string]engine.TableFunc, len(cur.funcs)+1)
	for k, v := range cur.funcs {
		funcs[k] = v
	}
	funcs[strings.ToLower(name)] = fn
	s.v.Store(&version{view: View{epoch: epoch, tables: cur.tables, funcs: funcs}})
	return epoch
}

// Compact folds fully-superseded row versions out of every table's
// arena — pure memory reclamation after updates and deletes, invisible
// to readers (old views hold their own arena slices) and to
// persistence (visible row order is unchanged). The persister calls
// this at every save, so a long-lived interface's dead versions are
// bounded by what one save interval supersedes. Returns the total
// number of versions dropped.
func (s *Store) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for _, t := range s.tables {
		dropped += t.Compact()
	}
	return dropped
}

// RowCount returns the current row count of the named table.
func (s *Store) RowCount(table string) (int, bool) {
	t, ok := s.Snapshot().Table(table)
	if !ok {
		return 0, false
	}
	return t.NumRows(), true
}
