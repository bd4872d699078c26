package store

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// mutFixture builds a store over one table "m" (cols a, x) with n rows
// a=i*10, x=i for i in [1,n].
func mutFixture(t *testing.T, n int) *Store {
	t.Helper()
	tbl := engine.NewTable("m", "a", "x")
	for i := 1; i <= n; i++ {
		tbl.MustAddRow(engine.Num(float64(i*10)), engine.Num(float64(i)))
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	return FromDB(db)
}

// TestMutateRowsSnapshotIsolation: snapshots taken before a mutation
// keep serving the pre-mutation rows; the post-mutation snapshot sees
// the update and not the deleted row; identity is stable.
func TestMutateRowsSnapshotIsolation(t *testing.T) {
	s := mutFixture(t, 10)
	before := s.Snapshot()
	ids, ok := before.RowIDs("m")
	if !ok || len(ids) != 10 {
		t.Fatalf("RowIDs = %v, ok=%v", ids, ok)
	}

	epoch, err := s.MutateRows("m",
		[]RowUpdate{{RowID: ids[2], Vals: []engine.Value{engine.Num(-1), engine.Num(3)}}},
		[]uint64{ids[9]})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != before.Epoch()+1 {
		t.Fatalf("mutation bumped epoch %d -> %d", before.Epoch(), epoch)
	}

	bt, _ := before.Table("m")
	if len(bt.Rows) != 10 {
		t.Fatalf("pinned snapshot has %d rows after mutation, want 10", len(bt.Rows))
	}
	if v, _ := bt.Rows[2][0].AsNumber(); v != 30 {
		t.Fatalf("pinned snapshot row2 = %v, want 30", bt.Rows[2][0])
	}

	after := s.Snapshot()
	at, _ := after.Table("m")
	if len(at.Rows) != 9 {
		t.Fatalf("post-mutation snapshot has %d rows, want 9", len(at.Rows))
	}
	aids, _ := after.RowIDs("m")
	found := false
	for i, id := range aids {
		if id == ids[9] {
			t.Fatal("deleted row still visible")
		}
		if id == ids[2] {
			found = true
			if v, _ := at.Rows[i][0].AsNumber(); v != -1 {
				t.Fatalf("updated row = %v, want -1", at.Rows[i][0])
			}
		}
	}
	if !found {
		t.Fatal("updated row lost its identity")
	}

	// Unknown rowid refuses without publishing.
	if _, err := s.MutateRows("m", nil, []uint64{9999}); err == nil {
		t.Fatal("unknown rowid accepted")
	}
	if s.Epoch() != epoch {
		t.Fatalf("failed mutation published: epoch %d -> %d", epoch, s.Epoch())
	}
	// Empty set is a no-op, not a bump.
	if e, err := s.MutateRows("m", nil, nil); err != nil || e != epoch {
		t.Fatalf("empty mutation: epoch %d err %v", e, err)
	}
}

// TestMutateRaceHammer pins the tentpole's concurrency claim: readers
// holding a snapshot at epoch E never observe any E+1 mutation, even
// while four writers update and delete concurrently. Run under -race
// (CI does) this also proves the visibility stamps are data-race-free.
func TestMutateRaceHammer(t *testing.T) {
	const writers = 4
	const roundsPerWriter = 50
	s := mutFixture(t, 400)
	pinned := s.Snapshot()
	ids, _ := pinned.RowIDs("m")

	var stop atomic.Bool
	var writersWG, readersWG sync.WaitGroup
	errs := make(chan error, writers+4)

	// Writers: each owns a disjoint quarter of the rowid space; it
	// updates the first half of its quarter and deletes one row per
	// round from the second half.
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			quarter := ids[w*100 : (w+1)*100]
			for r := 0; r < roundsPerWriter; r++ {
				ups := []RowUpdate{
					{RowID: quarter[r%50], Vals: []engine.Value{engine.Num(float64(-w)), engine.Num(float64(r))}},
				}
				var dels []uint64
				if r < 50 {
					dels = []uint64{quarter[50+r]}
				}
				if _, err := s.MutateRows("m", ups, dels); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// Readers: re-materialize the pinned snapshot's rows concurrently
	// with the writers and verify the epoch-E row set byte-for-byte.
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for !stop.Load() {
				tab, ok := pinned.Table("m")
				if !ok || len(tab.Rows) != 400 {
					errs <- errRowSet(len(tab.Rows))
					return
				}
				for i := 0; i < 400; i += 37 {
					if v, _ := tab.Rows[i][0].AsNumber(); v != float64((i+1)*10) {
						errs <- errRowSet(i)
						return
					}
				}
			}
		}()
	}

	writersWG.Wait()
	stop.Store(true)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The head snapshot reflects every write: 400 - 4*50 deletes.
	head, _ := s.Snapshot().Table("m")
	if len(head.Rows) != 400-writers*50 {
		t.Fatalf("head has %d rows, want %d", len(head.Rows), 400-writers*50)
	}
	// And the pinned snapshot still doesn't.
	if tab, _ := pinned.Table("m"); len(tab.Rows) != 400 {
		t.Fatalf("pinned snapshot ended with %d rows", len(tab.Rows))
	}
}

type errRowSet int

func (e errRowSet) Error() string { return "pinned snapshot changed under concurrent mutations" }
