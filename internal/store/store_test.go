package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
)

// seedDB builds a small two-table catalog.
func seedDB(t testing.TB, rows int) *engine.DB {
	t.Helper()
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= rows; i++ {
		if err := tbl.AddRow(engine.Num(float64(i*10)), engine.Num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	u := engine.NewTable("u", "b")
	u.MustAddRow(engine.Str("one"))
	db := engine.NewDB()
	db.AddTable(tbl)
	db.AddTable(u)
	return db
}

func row(vals ...float64) []engine.Value {
	out := make([]engine.Value, len(vals))
	for i, v := range vals {
		out[i] = engine.Num(v)
	}
	return out
}

func countRows(t testing.TB, cat engine.Catalog, sql string) float64 {
	t.Helper()
	n, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(cat, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("expected scalar result, got %dx%d", len(res.Rows), len(res.Rows[0]))
	}
	f, ok := res.Rows[0][0].AsNumber()
	if !ok {
		t.Fatalf("non-numeric count %v", res.Rows[0][0])
	}
	return f
}

// TestAppendRowsCopyOnWrite: a snapshot taken before an append must
// keep seeing the old row count forever — the whole point of COW
// versions is that epoch-pinned caches stay correct.
func TestAppendRowsCopyOnWrite(t *testing.T) {
	st := FromDB(seedDB(t, 5))
	before := st.Snapshot()
	if st.Epoch() != 1 {
		t.Fatalf("fresh store epoch = %d, want 1", st.Epoch())
	}

	epoch, err := st.AppendRows("t", [][]engine.Value{row(60, 6), row(70, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || st.Epoch() != 2 {
		t.Fatalf("post-append epoch = %d/%d, want 2", epoch, st.Epoch())
	}
	after := st.Snapshot()

	if got := countRows(t, before, "SELECT count(*) FROM t"); got != 5 {
		t.Fatalf("old snapshot sees %v rows, want 5", got)
	}
	if got := countRows(t, after, "SELECT count(*) FROM t"); got != 7 {
		t.Fatalf("new snapshot sees %v rows, want 7", got)
	}
	// The untouched table is shared, not copied.
	bu, _ := before.Table("u")
	au, _ := after.Table("u")
	if bu != au {
		t.Fatal("untouched table was copied by the append")
	}
}

func TestAppendRowsValidation(t *testing.T) {
	st := FromDB(seedDB(t, 2))
	if _, err := st.AppendRows("nope", [][]engine.Value{row(1)}); err == nil {
		t.Fatal("append to unknown table accepted")
	}
	if _, err := st.AppendRows("t", [][]engine.Value{row(1, 2), row(3)}); err == nil {
		t.Fatal("arity-mismatched row accepted")
	}
	// A rejected batch publishes nothing — all-or-nothing.
	if st.Epoch() != 1 {
		t.Fatalf("failed appends bumped the epoch to %d", st.Epoch())
	}
	if n, _ := st.RowCount("t"); n != 2 {
		t.Fatalf("failed append changed row count to %d", n)
	}
	if err := st.ValidateRows("t", [][]engine.Value{row(1, 2)}); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	if err := st.ValidateRows("t", [][]engine.Value{row(1)}); err == nil {
		t.Fatal("ValidateRows accepted an arity mismatch")
	}
}

// TestConcurrentExecWhileAppending hammers Exec against snapshots
// while a writer streams appends — run under -race, this is the
// storage layer's core concurrency contract: readers pin a snapshot
// and never see a torn state.
func TestConcurrentExecWhileAppending(t *testing.T) {
	st := FromDB(seedDB(t, 50))
	q, err := sqlparser.Parse("SELECT count(*), sum(x) FROM t WHERE x > 0")
	if err != nil {
		t.Fatal(err)
	}

	const appends = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				res, err := engine.Exec(snap, q)
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				// Within one snapshot the table is frozen: re-running
				// against the same snapshot must agree exactly.
				again, err := engine.Exec(snap, q)
				if err != nil {
					t.Errorf("re-exec: %v", err)
					return
				}
				if res.Rows[0][0] != again.Rows[0][0] {
					t.Errorf("snapshot not stable: %v vs %v", res.Rows[0][0], again.Rows[0][0])
					return
				}
			}
		}()
	}
	for i := 0; i < appends; i++ {
		if _, err := st.AppendRows("t", [][]engine.Value{row(float64(i), float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got := countRows(t, st.Snapshot(), "SELECT count(*) FROM t"); got != 50+appends {
		t.Fatalf("final count %v, want %d", got, 50+appends)
	}
	if st.Epoch() != 1+appends {
		t.Fatalf("final epoch %d, want %d", st.Epoch(), 1+appends)
	}
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := FromDB(seedDB(t, 3))
	if _, err := st.AppendRows("t", [][]engine.Value{row(40, 4)}); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		ID:        "round",
		Title:     "round trip",
		Epoch:     7,
		DataEpoch: st.Epoch(),
		Log:       []qlog.Entry{{SQL: "SELECT a FROM t WHERE x = 1"}, {SQL: "SELECT a FROM t WHERE x = 2", Client: "c9"}},
		Tables:    st.CaptureTables(),
	}
	n, err := Save(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("saved %d bytes", n)
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind after atomic publish: %v", leftovers)
	}

	got, err := Load(SnapFile(dir, "round"))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "round" || got.Title != "round trip" || got.Epoch != 7 || got.DataEpoch != snap.DataEpoch {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Log) != 2 || got.Log[1].Client != "c9" {
		t.Fatalf("log mismatch: %+v", got.Log)
	}
	restored, err := got.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != snap.DataEpoch {
		t.Fatalf("restored data epoch = %d, want %d", restored.Epoch(), snap.DataEpoch)
	}
	if c := countRows(t, restored.Snapshot(), "SELECT count(*) FROM t"); c != 4 {
		t.Fatalf("restored t has %v rows, want 4", c)
	}
	if l := got.RestoredLog(); l.Len() != 2 || l.Entries[0].Seq != 0 || l.Entries[1].Seq != 1 {
		t.Fatalf("restored log not rebased: %+v", l.Entries)
	}
}

// TestLoadRejectsCorruption: a flipped payload byte must fail the
// checksum; a truncated file and a foreign file must fail framing.
func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	st := FromDB(seedDB(t, 3))
	snap := &Snapshot{ID: "c", Title: "c", Epoch: 1, DataEpoch: 1, Tables: st.CaptureTables()}
	if _, err := Save(dir, snap); err != nil {
		t.Fatal(err)
	}
	path := SnapFile(dir, "c")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0xff
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("corrupted snapshot loaded")
	}

	if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("truncated snapshot loaded")
	}

	if err := os.WriteFile(bad, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("foreign file loaded")
	}
}

func TestSaveRejectsHostileID(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"", "a/b", "../escape", "a b"} {
		if _, err := Save(dir, &Snapshot{ID: id}); err == nil {
			t.Fatalf("hostile id %q accepted", id)
		}
	}
}

func TestAddFunc(t *testing.T) {
	st := FromDB(engine.NewDB())
	before := st.Snapshot()
	epoch := st.AddFunc("f", func(args []engine.Value) (*engine.Table, error) {
		return engine.NewTable("r", "x"), nil
	})
	// A function is not data: the data epoch stays where it was.
	if epoch != before.Epoch() || st.Epoch() != before.Epoch() {
		t.Fatalf("AddFunc published epoch %d (store at %d), want %d", epoch, st.Epoch(), before.Epoch())
	}
	if _, ok := before.Func("f"); ok {
		t.Fatal("old snapshot sees the new func")
	}
	if _, ok := st.Snapshot().Func("F"); !ok {
		t.Fatal("new snapshot missing the func")
	}
}
