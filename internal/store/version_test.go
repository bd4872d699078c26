package store

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
)

// numStore builds a store over one table "t" (cols a, x) with n rows
// a = base+i, x = i, so rowid i+1 holds a = base+i.
func numStore(n int, base float64) *Store {
	tbl := engine.NewTable("t", "a", "x")
	for i := 0; i < n; i++ {
		tbl.MustAddRow(engine.Num(base+float64(i)), engine.Num(float64(i)))
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	return FromDB(db)
}

// head returns the current rows and rowids of table t.
func head(t *testing.T, v *View) (*engine.Table, []uint64) {
	t.Helper()
	tab, ok := v.Table("t")
	ids, _ := v.RowIDs("t")
	if !ok || len(tab.Rows) != len(ids) {
		t.Fatalf("rows/ids misaligned at epoch %d: %d vs %d", v.Epoch(), len(tab.Rows), len(ids))
	}
	return tab, ids
}

func rowVal(t *testing.T, tab *engine.Table, i int) float64 {
	t.Helper()
	f, ok := tab.Rows[i][0].AsNumber()
	if !ok {
		t.Fatalf("row %d col 0 is not numeric: %v", i, tab.Rows[i][0])
	}
	return f
}

// TestVisibilityAcrossEpochs: a view at epoch E sees exactly the rows
// live at E — updates and deletes published later never leak in, and
// the replacement row is visible only from its epoch on.
func TestVisibilityAcrossEpochs(t *testing.T) {
	st := numStore(4, 100)
	v1 := st.Snapshot()
	_, ids := head(t, v1)
	if _, err := st.MutateRows("t",
		[]RowUpdate{{RowID: ids[0], Vals: row(999, 0)}}, []uint64{ids[3]}); err != nil {
		t.Fatal(err)
	}
	v2 := st.Snapshot()

	if tab, got := head(t, v1); len(got) != 4 || rowVal(t, tab, 0) != 100 {
		t.Fatalf("pinned epoch-1 view changed: %d rows, row0=%v", len(got), tab.Rows[0])
	}
	tab, got := head(t, v2)
	if len(got) != 3 {
		t.Fatalf("epoch-2 view has %d rows, want 3", len(got))
	}
	updated := slices.Index(got, ids[0])
	if updated < 0 || rowVal(t, tab, updated) != 999 {
		t.Fatalf("updated row lost: ids=%v rows=%v", got, tab.Rows)
	}
	if slices.Contains(got, ids[3]) {
		t.Fatal("deleted row still visible at epoch 2")
	}
}

// TestUpdateLandsAtEnd: untouched rows keep their order, an updated row
// moves to the end, and a deleted one is gone.
func TestUpdateLandsAtEnd(t *testing.T) {
	st := numStore(5, 0)
	if _, err := st.MutateRows("t", []RowUpdate{{RowID: 2, Vals: row(-2, 1)}}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	tab, ids := head(t, st.Snapshot())
	if !slices.Equal(ids, []uint64{1, 3, 5, 2}) || rowVal(t, tab, 3) != -2 {
		t.Fatalf("rowids %v, last row %v; want [1 3 5 2] ending in the update", ids, tab.Rows[3])
	}
	// Updated twice in one set: the last update wins and sets the order.
	if _, err := st.MutateRows("t", []RowUpdate{
		{RowID: 3, Vals: row(30, 0)}, {RowID: 1, Vals: row(10, 0)}, {RowID: 3, Vals: row(31, 0)},
	}, nil); err != nil {
		t.Fatal(err)
	}
	tab, ids = head(t, st.Snapshot())
	if !slices.Equal(ids, []uint64{5, 2, 1, 3}) || rowVal(t, tab, 3) != 31 {
		t.Fatalf("rowids %v, last row %v; want [5 2 1 3] ending in the second update", ids, tab.Rows[3])
	}
}

// TestMutateValidatesBeforeApplying: a set with one bad rowid or one
// short row must not partially apply, nor bump the epoch.
func TestMutateValidatesBeforeApplying(t *testing.T) {
	st := numStore(3, 0)
	before := st.Snapshot()
	_, ids := head(t, before)
	for _, set := range []struct {
		ups  []RowUpdate
		dels []uint64
	}{
		{[]RowUpdate{{RowID: ids[0], Vals: row(1, 1)}}, []uint64{777}},
		{[]RowUpdate{{RowID: ids[0], Vals: row(1, 1)}, {RowID: 777, Vals: row(1, 1)}}, nil},
		{[]RowUpdate{{RowID: ids[0], Vals: row(1, 1)}, {RowID: ids[1], Vals: row(1)}}, nil},
	} {
		if _, err := st.MutateRows("t", set.ups, set.dels); err == nil {
			t.Fatalf("invalid set %+v applied", set)
		}
		if st.Snapshot() != before {
			t.Fatalf("invalid set %+v published a version", set)
		}
	}
}

// TestPublishAppendFastPath: an append extends the head's rows in
// place — the new version shares the old one's row prefix — and after
// a mutation the next append extends the mutated version, not the
// stale prefix.
func TestPublishAppendFastPath(t *testing.T) {
	st := numStore(100, 0)
	if _, err := st.AppendRows("t", [][]engine.Value{row(1000, 0)}); err != nil {
		t.Fatal(err)
	}
	t1, _ := head(t, st.Snapshot())
	if _, err := st.AppendRows("t", [][]engine.Value{row(1001, 0)}); err != nil {
		t.Fatal(err)
	}
	t2, _ := head(t, st.Snapshot())
	if len(t2.Rows) != 102 || &t1.Rows[0] != &t2.Rows[0] {
		t.Fatalf("append copied the shared row prefix (%d rows)", len(t2.Rows))
	}
	if _, err := st.MutateRows("t", nil, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendRows("t", [][]engine.Value{row(2000, 0)}); err != nil {
		t.Fatal(err)
	}
	tab, ids := head(t, st.Snapshot())
	if len(ids) != 102 || ids[0] != 2 || ids[101] != 103 || rowVal(t, tab, 101) != 2000 {
		t.Fatalf("post-mutation append: %d rows, ids %d..%d", len(ids), ids[0], ids[len(ids)-1])
	}
	if len(t2.Rows) != 102 || rowVal(t, t2, 101) != 1001 {
		t.Fatal("a later version wrote into a pinned one")
	}
}

// TestSeedRoundTrip: restoring explicit rowids keeps identity, the
// allocator never re-issues a live id, and a duplicate, misaligned or
// out-of-range rowid refuses the restore.
func TestSeedRoundTrip(t *testing.T) {
	rows := [][]engine.Value{row(0, 0), row(1, 1), row(2, 2)}
	snap := &Snapshot{DataEpoch: 5, Tables: []TableData{{Name: "t", Cols: []string{"a", "x"}, Rows: rows, RowIDs: []uint64{7, 3, 9}, NextRowID: 4}}}
	st, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if _, ids := head(t, st.Snapshot()); !slices.Equal(ids, []uint64{7, 3, 9}) || st.Epoch() != 5 {
		t.Fatalf("restored rowids %v at epoch %d", ids, st.Epoch())
	}
	if td := st.CaptureTables()[0]; td.NextRowID != 10 {
		t.Fatalf("restored allocator at %d, want 10", td.NextRowID)
	}
	for _, ids := range [][]uint64{{5, 5, 6}, {5}, {5, maxRowID, 6}, {5, math.MaxUint64, 6}} {
		snap.Tables[0].RowIDs = ids
		if _, err := snap.Restore(); err == nil {
			t.Fatalf("rowids %v accepted for 3 rows", ids)
		}
	}
}

// TestRowIDAndTableAlignment: RowIDs and Table come from one version,
// so index i always names the same row in both.
func TestRowIDAndTableAlignment(t *testing.T) {
	st := numStore(50, 0)
	if _, err := st.MutateRows("t", []RowUpdate{{RowID: 31, Vals: row(30, 30)}}, []uint64{11, 21}); err != nil {
		t.Fatal(err)
	}
	tab, ids := head(t, st.Snapshot())
	for i, id := range ids {
		if got, want := rowVal(t, tab, i), float64(id-1); got != want {
			t.Fatalf("row %d: rowid %d but a = %v (want %v)", i, id, got, want)
		}
	}
}

// TestStoresFromOneDBShareNoWrites: two stores built from one DB, and
// a store restored from another's capture, never append into a backing
// array they did not allocate: each sees only its own appends, and the
// DB keeps its rows.
func TestStoresFromOneDBShareNoWrites(t *testing.T) {
	tbl := engine.NewTable("t", "a", "x")
	tbl.Rows = make([][]engine.Value, 0, 64) // spare capacity to write into
	for i := 0; i < 4; i++ {
		tbl.MustAddRow(row(float64(i), 0)...)
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	a, b := FromDB(db), FromDB(db)
	appendOne := func(st *Store, a float64) {
		if _, err := st.AppendRows("t", [][]engine.Value{row(a, 0)}); err != nil {
			t.Fatal(err)
		}
	}
	appendOne(a, 100) // a's rows now have spare capacity of their own
	c, err := (&Snapshot{DataEpoch: 1, Tables: a.CaptureTables()}).Restore()
	if err != nil {
		t.Fatal(err)
	}
	appendOne(b, 101)
	appendOne(c, 102)
	appendOne(a, 103)
	for name, want := range map[*Store][]float64{a: {100, 103}, b: {101}, c: {100, 102}} {
		tab, _ := head(t, name.Snapshot())
		var got []float64
		for i := 4; i < len(tab.Rows); i++ {
			got = append(got, rowVal(t, tab, i))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("a store's appended rows read %v, want %v", got, want)
		}
	}
	if len(tbl.Rows) != 4 || tbl.Rows[:5][4] != nil {
		t.Fatal("a store wrote into the DB's backing array")
	}
}

// TestAllocPins pins the exact allocations of the store's publish
// paths, the same at 2k and 20k rows: none of them allocates per row.
func TestAllocPins(t *testing.T) {
	pins := map[string]float64{"FromDB": 13, "AppendRows16": 8, "MutateRows1pct": 11, "RowCount": 0}
	counts := map[string][]float64{}
	for _, n := range []int{2000, 20000} {
		db := engine.OnTimeDB(n)
		counts["FromDB"] = append(counts["FromDB"], testing.AllocsPerRun(20, func() { FromDB(db) }))
		st := FromDB(db)
		batch := make([][]engine.Value, 16)
		for i := range batch {
			batch[i] = make([]engine.Value, 16)
		}
		counts["AppendRows16"] = append(counts["AppendRows16"], testing.AllocsPerRun(20, func() {
			if _, err := st.AppendRows("ontime", batch); err != nil {
				t.Fatal(err)
			}
		}))
		ids, _ := st.Snapshot().RowIDs("ontime")
		ups := make([]RowUpdate, len(ids)/100)
		for i := range ups {
			ups[i] = RowUpdate{RowID: ids[i*100], Vals: batch[0]}
		}
		counts["MutateRows1pct"] = append(counts["MutateRows1pct"], testing.AllocsPerRun(20, func() {
			if _, err := st.MutateRows("ontime", ups, nil); err != nil {
				t.Fatal(err)
			}
		}))
		counts["RowCount"] = append(counts["RowCount"], testing.AllocsPerRun(20, func() { st.RowCount("ontime") }))
	}
	for name, c := range counts {
		t.Logf("%s: %v allocs at 2k, 20k rows", name, c)
		if c[0] != pins[name] || c[1] != pins[name] {
			t.Errorf("%s allocates %v at 2k, 20k rows; want %v at both", name, c, pins[name])
		}
	}
}

func ExampleStore_MutateRows() {
	tbl := engine.NewTable("t", "a")
	tbl.MustAddRow(engine.Num(1))
	tbl.MustAddRow(engine.Num(2))
	db := engine.NewDB()
	db.AddTable(tbl)
	st := FromDB(db)
	epoch, _ := st.MutateRows("t", []RowUpdate{{RowID: 1, Vals: []engine.Value{engine.Num(10)}}}, []uint64{2})
	tab, _ := st.Snapshot().Table("t")
	fmt.Println(epoch, len(tab.Rows), tab.Rows[0][0].String())
	// Output: 2 1 10
}
