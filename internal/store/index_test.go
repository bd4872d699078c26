package store

import (
	"math"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
)

func usersStore(t *testing.T) *Store {
	t.Helper()
	db := engine.NewDB()
	tab := engine.NewTable("users", "id", "city", "score")
	for i := 0; i < 20; i++ {
		tab.MustAddRow(engine.Num(float64(i)), engine.Str([]string{"ORD", "SFO", "JFK", "LAX"}[i%4]), engine.Num(float64(i*10)))
	}
	db.AddTable(tab)
	return FromDB(db)
}

// cityQuery compiles `SELECT id FROM users WHERE city = '<city>'`.
func cityQuery(t *testing.T, city string) (*engine.ColPlan, func(v *View) *engine.Table) {
	t.Helper()
	n, err := sqlparser.Parse("SELECT id FROM users WHERE city = '" + city + "'")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := engine.CompileColumnar(n)
	if !ok {
		t.Fatal("not a columnar plan")
	}
	rowPath := func(v *View) *engine.Table {
		res, err := engine.Exec(v, n)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	return p, rowPath
}

// columnar runs p at v, reporting a fallback or error as a failure.
func columnar(t *testing.T, v *View, p *engine.ColPlan) *engine.Table {
	t.Helper()
	res, ran, err := engine.ExecColumnar(v, p)
	if !ran || err != nil {
		t.Errorf("columnar ran=%v err=%v", ran, err)
		return &engine.Table{}
	}
	return res
}

// TestStoreIndexPinnedVsHead: a snapshot pinned before UPDATE/DELETE
// keeps answering its exact pre-mutation rows from its postings while
// the head reflects the mutation — the store-level half of the
// epoch-chain guarantee.
func TestStoreIndexPinnedVsHead(t *testing.T) {
	st := usersStore(t)
	pinned := st.Snapshot()
	p, _ := cityQuery(t, "SFO")
	columnar(t, pinned, p) // the first lookup scans; later ones use postings
	ids, _ := pinned.RowIDs("users")

	// Move row 1 (SFO) to ORD, delete row 5 (SFO).
	if _, err := st.MutateRows("users",
		[]RowUpdate{{RowID: ids[1], Vals: []engine.Value{engine.Num(1), engine.Str("ORD"), engine.Num(10)}}},
		[]uint64{ids[5]}); err != nil {
		t.Fatal(err)
	}
	head := st.Snapshot()
	for i := 0; i < 2; i++ {
		if got := columnar(t, pinned, p).NumRows(); got != 5 {
			t.Fatalf("pinned SFO rows = %d, want 5 (pre-mutation)", got)
		}
		if got := columnar(t, head, p).NumRows(); got != 3 {
			t.Fatalf("head SFO rows = %d, want 3 (one moved, one deleted)", got)
		}
	}
}

// TestStoreIndexConcurrentWritesWithPinnedReader: readers race a
// column's first and second `=` lookup — the scan, then the postings
// build — on one pinned snapshot while a writer appends and mutates;
// the pinned answer never changes, and every head answer equals the
// row path's. Run under -race this is the proof that postings built
// lazily on a shared columnar projection need no reader locks.
func TestStoreIndexConcurrentWritesWithPinnedReader(t *testing.T) {
	st := usersStore(t)
	pinned := st.Snapshot()
	p, rowPath := cityQuery(t, "ORD")
	want := rowPath(pinned).Render()

	var wg sync.WaitGroup
	start, stop := make(chan struct{}), make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				if got := columnar(t, pinned, p).Render(); got != want {
					t.Errorf("pinned ORD answer drifted:\n%s\nwant:\n%s", got, want)
					return
				}
				v := st.Snapshot()
				if got, rw := columnar(t, v, p).Render(), rowPath(v).Render(); got != rw {
					t.Errorf("head at epoch %d: columnar\n%s\nrow path\n%s", v.Epoch(), got, rw)
					return
				}
				if i < 8 {
					continue // every reader gets past the pinned build
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	close(start)
	for i := 0; i < 50; i++ {
		if _, err := st.AppendRows("users", [][]engine.Value{
			{engine.Num(float64(100 + i)), engine.Str("ORD"), engine.Num(1)},
		}); err != nil {
			t.Fatal(err)
		}
		ids, _ := st.Snapshot().RowIDs("users")
		if i%3 == 0 {
			if _, err := st.MutateRows("users",
				[]RowUpdate{{RowID: ids[len(ids)-1], Vals: []engine.Value{engine.Num(float64(100 + i)), engine.Str("SFO"), engine.Num(2)}}},
				nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// eqRows answers `SELECT * FROM t WHERE k = lit` at v through the
// columnar plan twice — the second run answers from k's postings on
// the version's columnar projection — and fails the test unless both
// runs render exactly what the row path returns.
func eqRows(t *testing.T, v *View, lit string) *engine.Table {
	t.Helper()
	sql := "SELECT * FROM t WHERE k = " + lit
	n, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Exec(v, n)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := engine.CompileColumnar(n)
	if !ok {
		t.Fatalf("%s: not a columnar plan", sql)
	}
	for run := 1; run <= 2; run++ {
		if got := columnar(t, v, p); got.Render() != want.Render() {
			t.Fatalf("%s run %d at epoch %d:\ncolumnar:\n%s\nrow path:\n%s", sql, run, v.Epoch(), got.Render(), want.Render())
		}
	}
	return want
}

// kStore builds a store over one table "t" (cols k, x) holding rows.
func kStore(rows ...[]engine.Value) *Store {
	tbl := engine.NewTable("t", "k", "x")
	tbl.Rows = rows
	db := engine.NewDB()
	db.AddTable(tbl)
	return FromDB(db)
}

// TestIndexMatchesScanAcrossEpochs pins the epoch-chain guarantee:
// after interleaved appends, updates and deletes, an equality lookup
// at any published epoch returns exactly what the row path returns
// there — the pinned view never sees post-pin rows, the head never
// misses them.
func TestIndexMatchesScanAcrossEpochs(t *testing.T) {
	st := kStore(row(1, 10), row(2, 20), row(1, 30), row(4, 40))
	v1 := st.Snapshot()
	// Epoch 2: update rowid 1's key 1 -> 2, delete the key-4 row.
	if _, err := st.MutateRows("t", []RowUpdate{{RowID: 1, Vals: row(2, 10)}}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	v2 := st.Snapshot()
	// Epoch 3: append more rows, one sharing key 2.
	if _, err := st.AppendRows("t", [][]engine.Value{row(2, 50), row(4, 60)}); err != nil {
		t.Fatal(err)
	}
	v3 := st.Snapshot()

	for _, v := range []*View{v1, v2, v3} {
		for _, lit := range []string{"1", "2", "4", "'2'", "99"} {
			eqRows(t, v, lit)
		}
	}
	if got := eqRows(t, v1, "1").NumRows(); got != 2 {
		t.Fatalf("pinned view key 1 rows = %d, want 2", got)
	}
	if got := eqRows(t, v1, "4").NumRows(); got != 1 {
		t.Fatalf("pinned view key 4 rows = %d, want 1", got)
	}
	if got := eqRows(t, v3, "4").NumRows(); got != 1 {
		t.Fatalf("head key 4 rows = %d, want the appended row only", got)
	}
}

// TestIndexUnindexableKeys: NULL and NaN keys and cells answer what
// the row path answers — NULL matches nothing, and NaN, in a cell or
// as the string literal 'NaN', equals every number.
func TestIndexUnindexableKeys(t *testing.T) {
	st := kStore(
		[]engine.Value{engine.Null(), engine.Num(0)},
		[]engine.Value{engine.Num(math.NaN()), engine.Num(1)},
		[]engine.Value{engine.Num(5), engine.Num(2)},
		[]engine.Value{engine.Str("NaN"), engine.Num(3)},
	)
	for lit, want := range map[string]int{"NULL": 0, "'NaN'": 3, "5": 3, "6": 2} {
		if got := eqRows(t, st.Snapshot(), lit).NumRows(); got != want {
			t.Errorf("k = %s: %d rows, want %d", lit, got, want)
		}
	}
}
