package store

import (
	"sync"
	"testing"

	"repro/internal/engine"
)

func indexedStore(t *testing.T) *Store {
	t.Helper()
	db := engine.NewDB()
	tab := engine.NewTable("users", "id", "city", "score")
	for i := 0; i < 20; i++ {
		tab.MustAddRow(engine.Num(float64(i)), engine.Str([]string{"ORD", "SFO", "JFK", "LAX"}[i%4]), engine.Num(float64(i*10)))
	}
	db.AddTable(tab)
	st := FromDB(db)
	if !st.EnableIndex("users", "city") {
		t.Fatal("EnableIndex(users, city) = false")
	}
	return st
}

// TestStoreIndexLookupServesViews: a snapshot's IndexLookup answers
// SQL-equality positions into its Table() rows, and enabling an index
// does not bump the data epoch (an index is not a data mutation, so
// epoch-keyed caches above stay valid).
func TestStoreIndexLookupServesViews(t *testing.T) {
	st := indexedStore(t)
	if got := st.Epoch(); got != 1 {
		t.Fatalf("EnableIndex bumped the data epoch to %d", got)
	}
	v := st.Snapshot()
	pos, ok := v.IndexLookup("users", "city", engine.Str("SFO"))
	if !ok {
		t.Fatal("IndexLookup(city) not served")
	}
	tab, _ := v.Table("users")
	if len(pos) != 5 {
		t.Fatalf("SFO positions = %v, want 5", pos)
	}
	for _, p := range pos {
		if !engine.Equal(tab.Rows[p][1], engine.Str("SFO")) {
			t.Fatalf("position %d is %v, not SFO", p, tab.Rows[p][1])
		}
	}
	if _, ok := v.IndexLookup("users", "score", engine.Num(10)); ok {
		t.Fatal("unindexed column served")
	}
	if _, ok := v.IndexLookup("ghosts", "city", engine.Str("SFO")); ok {
		t.Fatal("unknown table served")
	}
}

// TestStoreIndexPinnedVsHead: a snapshot pinned before UPDATE/DELETE
// keeps answering its exact pre-mutation positions while the head
// reflects the mutation — the store-level half of the epoch-chain
// guarantee.
func TestStoreIndexPinnedVsHead(t *testing.T) {
	st := indexedStore(t)
	pinned := st.Snapshot()
	ids, _ := pinned.RowIDs("users")

	// Move row 1 (SFO) to ORD, delete row 5 (SFO).
	if _, err := st.MutateRows("users",
		[]RowUpdate{{RowID: ids[1], Vals: []engine.Value{engine.Num(1), engine.Str("ORD"), engine.Num(10)}}},
		[]uint64{ids[5]}); err != nil {
		t.Fatal(err)
	}
	head := st.Snapshot()

	pp, _ := pinned.IndexLookup("users", "city", engine.Str("SFO"))
	hp, _ := head.IndexLookup("users", "city", engine.Str("SFO"))
	if len(pp) != 5 {
		t.Fatalf("pinned SFO count = %d, want 5 (pre-mutation)", len(pp))
	}
	if len(hp) != 3 {
		t.Fatalf("head SFO count = %d, want 3 (one moved, one deleted)", len(hp))
	}
	headTab, _ := head.Table("users")
	for _, p := range hp {
		if !engine.Equal(headTab.Rows[p][1], engine.Str("SFO")) {
			t.Fatalf("head position %d is %v", p, headTab.Rows[p][1])
		}
	}
}

// TestStoreIndexConcurrentWritesWithPinnedReader hammers appends and
// mutations while readers pinned to older snapshots keep doing index
// lookups and columnar builds — the -race proof that publishing index
// snapshots into immutable views needs no reader locks.
func TestStoreIndexConcurrentWritesWithPinnedReader(t *testing.T) {
	st := indexedStore(t)
	pinned := st.Snapshot()
	basePos, _ := pinned.IndexLookup("users", "city", engine.Str("ORD"))
	baseN := len(basePos)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: re-validate the pinned snapshot and probe the moving head.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if pos, ok := pinned.IndexLookup("users", "city", engine.Str("ORD")); !ok || len(pos) != baseN {
					t.Errorf("pinned ORD count drifted: %d (ok=%v), want %d", len(pos), ok, baseN)
					return
				}
				v := st.Snapshot()
				if pos, ok := v.IndexLookup("users", "city", engine.Str("ORD")); ok {
					tab, _ := v.Table("users")
					for _, p := range pos {
						if !engine.Equal(tab.Rows[p][1], engine.Str("ORD")) {
							t.Errorf("head position %d is %v at epoch %d", p, tab.Rows[p][1], v.Epoch())
							return
						}
					}
				}
				if ct, ok := v.Columnar("users"); !ok || ct.N != len(mustTable(v)) {
					t.Errorf("columnar rows %d != table rows %d", ct.N, len(mustTable(v)))
					return
				}
			}
		}()
	}
	// Writer: interleave appends and mutations.
	for i := 0; i < 50; i++ {
		if _, err := st.AppendRows("users", [][]engine.Value{
			{engine.Num(float64(100 + i)), engine.Str("ORD"), engine.Num(1)},
		}); err != nil {
			t.Fatal(err)
		}
		v := st.Snapshot()
		ids, _ := v.RowIDs("users")
		if i%3 == 0 && len(ids) > 0 {
			last := ids[len(ids)-1]
			if _, err := st.MutateRows("users",
				[]RowUpdate{{RowID: last, Vals: []engine.Value{engine.Num(float64(100 + i)), engine.Str("SFO"), engine.Num(2)}}},
				nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func mustTable(v *View) [][]engine.Value {
	t, _ := v.Table("users")
	return t.Rows
}

// TestStoreEnableIndexes: EnableIndexes applies the auto-selected
// predicate columns that resolve and counts them; unknown columns and
// tables are skipped.
func TestStoreEnableIndexes(t *testing.T) {
	st := indexedStore(t)
	n := st.EnableIndexes([]engine.PredicateColumn{
		{Table: "users", Col: "score"},
		{Table: "users", Col: "city"},    // already enabled: still counts as covered
		{Table: "users", Col: "missing"}, // unknown column: skipped
		{Table: "orders", Col: "sku"},    // unknown table: skipped
	})
	if n != 2 {
		t.Fatalf("EnableIndexes applied %d, want 2", n)
	}
	if _, ok := st.Snapshot().IndexLookup("users", "score", engine.Num(10)); !ok {
		t.Fatal("score index not serving after EnableIndexes")
	}
	if _, ok := st.Snapshot().IndexLookup("orders", "sku", engine.Str("a-1")); ok {
		t.Fatal("unknown table serves an index lookup")
	}
}
