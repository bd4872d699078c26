package mvcc

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// viewCat serves one view, under any table name, to the executors.
type viewCat struct{ v *View }

func (c viewCat) Table(string) (*engine.Table, bool)            { return c.v.Table(), true }
func (viewCat) Func(string) (engine.TableFunc, bool)            { return nil, false }
func (c viewCat) Columnar(string) (*engine.ColumnarTable, bool) { return c.v.Columnar(), true }

// eqRows answers `SELECT * FROM t WHERE k = lit` at v through the
// columnar plan twice — the second run answers from k's postings on
// the view's columnar projection — and fails the test unless both runs
// render exactly what the row path returns.
func eqRows(t *testing.T, v *View, lit string) *engine.Table {
	t.Helper()
	sql := "SELECT * FROM t WHERE k = " + lit
	n, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Exec(viewCat{v}, n)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := engine.CompileColumnar(n)
	if !ok {
		t.Fatalf("%s: not a columnar plan", sql)
	}
	for run := 1; run <= 2; run++ {
		got, ran, err := engine.ExecColumnar(viewCat{v}, p)
		if !ran || err != nil {
			t.Fatalf("%s run %d: columnar ran=%v err=%v", sql, run, ran, err)
		}
		if got.Render() != want.Render() {
			t.Fatalf("%s run %d at epoch %d:\ncolumnar:\n%s\nrow path:\n%s", sql, run, v.epoch, got.Render(), want.Render())
		}
	}
	return want
}

// TestIndexMatchesScanAcrossEpochs pins the epoch-chain guarantee:
// after interleaved appends, updates and deletes, an equality lookup
// at any published epoch returns exactly what the row path returns
// there — the pinned view never sees post-pin rows, the head never
// misses them.
func TestIndexMatchesScanAcrossEpochs(t *testing.T) {
	wt := NewTable("t", []string{"k", "x"})
	ids := wt.Append([][]engine.Value{
		{engine.Num(1), engine.Num(10)},
		{engine.Num(2), engine.Num(20)},
		{engine.Num(1), engine.Num(30)},
		{engine.Num(4), engine.Num(40)},
	}, 1)
	v1 := wt.Publish(1, 4)

	// Epoch 2: update row 0's key 1 -> 2, delete the key-4 row.
	if err := wt.Mutate(
		[]Update{{RowID: ids[0], Vals: []engine.Value{engine.Num(2), engine.Num(10)}}},
		[]uint64{ids[3]}, 2); err != nil {
		t.Fatal(err)
	}
	v2 := wt.Publish(2, 0)

	// Epoch 3: append more rows, one sharing key 2.
	wt.Append([][]engine.Value{
		{engine.Num(2), engine.Num(50)},
		{engine.Num(4), engine.Num(60)},
	}, 3)
	v3 := wt.Publish(3, 2)

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
	wt := NewTable("t", []string{"k"})
	wt.Append([][]engine.Value{
		{engine.Null()},
		{engine.Num(math.NaN())},
		{engine.Num(5)},
		{engine.Str("NaN")},
	}, 1)
	v := wt.Publish(1, 4)
	for lit, want := range map[string]int{"NULL": 0, "'NaN'": 3, "5": 3, "6": 2} {
		if got := eqRows(t, v, lit).NumRows(); got != want {
			t.Errorf("k = %s: %d rows, want %d", lit, got, want)
		}
	}
}

// TestIndexCompactRebuild: compaction drops retired versions from the
// arena; head lookups stay exact and a view pinned before the
// compaction keeps answering its own rows.
func TestIndexCompactRebuild(t *testing.T) {
	wt := NewTable("t", []string{"k", "x"})
	ids := wt.Append(numRows(8, 0), 1)
	v1 := wt.Publish(1, 8)
	eqRows(t, v1, "5")
	if err := wt.Mutate(
		[]Update{{RowID: ids[2], Vals: []engine.Value{engine.Num(100), engine.Num(2)}}},
		[]uint64{ids[5], ids[6]}, 2); err != nil {
		t.Fatal(err)
	}
	wt.Publish(2, 0)
	if dropped := wt.Compact(); dropped != 3 {
		t.Fatalf("Compact dropped %d versions, want 3 (one superseded, two deleted)", dropped)
	}
	head := wt.Publish(3, 0)

	for lit, want := range map[string]int{"0": 1, "2": 0, "5": 0, "100": 1} {
		if got := eqRows(t, head, lit).NumRows(); got != want {
			t.Errorf("post-compact k = %s: %d rows, want %d", lit, got, want)
		}
	}
	// v1 predates the compaction and the mutation.
	if got := eqRows(t, v1, "5").NumRows(); got != 1 {
		t.Fatalf("pinned view k = 5: %d rows after compact, want 1", got)
	}
}
