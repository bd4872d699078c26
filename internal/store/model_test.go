package store

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// refTable is the reference model FuzzStore checks the store against:
// one table at one epoch, every row copied, rowids and the rowid
// allocator kept alongside. Nothing is shared between two epochs.
type refTable struct {
	epoch  uint64
	rows   [][]engine.Value
	ids    []uint64
	nextID uint64
}

// modelCols is the model table's width: a key and a payload.
const modelCols = 2

// copyRow gives each epoch its own row values.
func copyRow(r []engine.Value) []engine.Value { return append([]engine.Value(nil), r...) }

// appendRows is AppendRows on the model: rowids in row order from the
// allocator, one epoch per non-empty batch.
func (r refTable) appendRows(rows [][]engine.Value) refTable {
	if len(rows) == 0 {
		return r
	}
	next := refTable{epoch: r.epoch + 1, nextID: r.nextID}
	for i := range r.rows {
		next.rows = append(next.rows, copyRow(r.rows[i]))
		next.ids = append(next.ids, r.ids[i])
	}
	for _, row := range rows {
		next.rows = append(next.rows, copyRow(row))
		next.ids = append(next.ids, next.nextID)
		next.nextID++
	}
	return next
}

// mutate is MutateRows on the model: the whole set is checked first;
// untouched rows keep their order, updated rows move to the end in the
// order of each rowid's last update, and a rowid that is both updated
// and deleted is gone. ok=false means the store must refuse the set
// and stay as it was.
func (r refTable) mutate(ups []RowUpdate, dels []uint64) (refTable, bool) {
	live := map[uint64]bool{}
	for _, id := range r.ids {
		live[id] = true
	}
	for _, u := range ups {
		if !live[u.RowID] || len(u.Vals) != modelCols {
			return r, false
		}
	}
	for _, id := range dels {
		if !live[id] {
			return r, false
		}
	}
	if len(ups) == 0 && len(dels) == 0 {
		return r, true
	}
	last, deleted := map[uint64]int{}, map[uint64]bool{}
	for i, u := range ups {
		last[u.RowID] = i
	}
	for _, id := range dels {
		deleted[id] = true
	}
	next := refTable{epoch: r.epoch + 1, nextID: r.nextID}
	for i, id := range r.ids {
		if _, updated := last[id]; !updated && !deleted[id] {
			next.rows = append(next.rows, copyRow(r.rows[i]))
			next.ids = append(next.ids, id)
		}
	}
	for i, u := range ups {
		if last[u.RowID] == i && !deleted[u.RowID] {
			next.rows = append(next.rows, copyRow(u.Vals))
			next.ids = append(next.ids, u.RowID)
		}
	}
	return next, true
}

// modelKeys are the key cells and `=` literals a schedule draws from:
// numbers, a string, a numeric string and NULL.
var (
	modelKeys = []engine.Value{engine.Num(0), engine.Num(1), engine.Num(2),
		engine.Str("a"), engine.Str("1"), engine.Null()}
	modelLits  = []string{"0", "1", "2", "'a'", "'1'", "NULL"}
	modelNames = []string{"f", "F", "dbo.f"} // every spelling the catalog accepts
)

// modelQuery is one `SELECT * FROM f WHERE k = lit`, parsed and
// compiled once per fuzz target.
type modelQuery struct {
	lit  string
	sel  *ast.Node
	plan *engine.ColPlan
}

// schedule reads a fuzz input as a stream of small choices; an
// exhausted stream reads as zeros.
type schedule struct {
	b []byte
	i int
}

func (s *schedule) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *schedule) done() bool { return s.i >= len(s.b) }

// FuzzStore drives seeded schedules of appends, updates (the same rowid
// twice included), deletes, update+delete of one rowid, refused sets
// (an unknown or deleted rowid, a width mismatch), pins and
// CaptureTables -> Restore through the store's public API, and checks
// every pinned view and the head against the reference model: rows,
// rowids, order, epoch, and the `=` postings answer against engine.Exec
// over the model's copy.
func FuzzStore(f *testing.F) {
	f.Add([]byte{3, 0, 2, 1, 4, 5, 1, 2, 0, 1, 2, 0, 3, 6, 0, 1, 5})
	f.Add([]byte{2, 5, 1, 2, 0, 0, 1, 0, 2, 1, 1, 3, 1, 0, 4, 0, 6, 5, 0, 3, 2, 2, 1})
	f.Add([]byte{0, 0, 3, 1, 2, 3, 5, 2, 1, 1, 1, 1, 1, 6, 3, 7, 4, 1, 0, 2, 5})
	f.Add([]byte{1, 5, 6, 0, 1, 4, 2, 0, 0, 1, 2, 2, 5, 1, 3, 0, 0, 1, 4, 6, 2, 1, 0, 0})
	queries := make([]modelQuery, len(modelLits))
	for i, lit := range modelLits {
		n, err := sqlparser.Parse("SELECT * FROM f WHERE k = " + lit)
		if err != nil {
			f.Fatal(err)
		}
		p, ok := engine.CompileColumnar(n)
		if !ok {
			f.Fatalf("k = %s: not a columnar plan", lit)
		}
		queries[i] = modelQuery{lit, n, p}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := &schedule{b: raw}
		payload := 0
		row := func() []engine.Value {
			payload++
			return []engine.Value{modelKeys[s.next()%len(modelKeys)], engine.Num(float64(payload))}
		}
		tbl := engine.NewTable("f", "k", "v")
		ref := refTable{epoch: 1, nextID: 1}
		for n := s.next() % 4; n > 0; n-- {
			r := row()
			tbl.MustAddRow(r...)
			ref.rows = append(ref.rows, r)
			ref.ids = append(ref.ids, ref.nextID)
			ref.nextID++
		}
		db := engine.NewDB()
		db.AddTable(tbl)
		st := FromDB(db)
		type pin struct {
			v   *View
			ref refTable
		}
		var pins []pin
		var dead []uint64 // rowids once assigned and since deleted
		pick := func() uint64 { return ref.ids[s.next()%len(ref.ids)] }
		for ops := 0; !s.done() && ops < 48; ops++ {
			name := modelNames[s.next()%len(modelNames)]
			var err error
			switch op := s.next() % 7; {
			case op == 0: // append 0..3 rows
				rows := make([][]engine.Value, s.next()%4)
				for i := range rows {
					rows[i] = row()
				}
				_, err = st.AppendRows(name, rows)
				ref = ref.appendRows(rows)
			case op == 1 && len(ref.ids) > 0: // 1..3 updates; small tables repeat rowids
				ups := make([]RowUpdate, 1+s.next()%3)
				for i := range ups {
					ups[i] = RowUpdate{RowID: pick(), Vals: row()}
				}
				if s.next()%2 == 1 {
					ups = append(ups, RowUpdate{RowID: ups[0].RowID, Vals: row()})
				}
				_, err = st.MutateRows(name, ups, nil)
				ref, _ = ref.mutate(ups, nil)
			case op == 2 && len(ref.ids) > 0: // a delete, maybe of a rowid the set also updates
				id := pick()
				var ups []RowUpdate
				if s.next()%2 == 1 {
					ups = []RowUpdate{{RowID: id, Vals: row()}}
				}
				_, err = st.MutateRows(name, ups, []uint64{id})
				ref, _ = ref.mutate(ups, []uint64{id})
				dead = append(dead, id)
			case op == 3 || op == 4: // a set the store must refuse whole
				bad := ref.nextID + uint64(s.next())
				if len(dead) > 0 && s.next()%2 == 1 {
					bad = dead[s.next()%len(dead)]
				}
				var ups []RowUpdate
				if len(ref.ids) > 0 {
					ups = []RowUpdate{{RowID: pick(), Vals: row()}}
				}
				dels := []uint64{bad}
				if op == 4 {
					if len(ref.ids) == 0 {
						if _, err := st.AppendRows(name, [][]engine.Value{row(), {engine.Num(1)}}); err == nil {
							t.Fatal("a batch with a short row was accepted")
						}
						break
					}
					ups = append(ups, RowUpdate{RowID: pick(), Vals: []engine.Value{engine.Num(1)}})
					dels = nil
				}
				if _, err := st.MutateRows(name, ups, dels); err == nil {
					t.Fatalf("refused set applied: updates %v deletes %v", ups, dels)
				}
				if _, ok := ref.mutate(ups, dels); ok {
					t.Fatal("the model accepted a set the schedule built to be refused")
				}
			case op == 5:
				pins = append(pins, pin{st.Snapshot(), ref})
			case op == 6:
				tds := st.CaptureTables()
				if len(tds) != 1 || tds[0].NextRowID != ref.nextID {
					t.Fatalf("capture %+v, want one table with next rowid %d", tds, ref.nextID)
				}
				if st, err = (&Snapshot{DataEpoch: st.Epoch(), Tables: tds}).Restore(); err != nil {
					t.Fatal(err)
				}
			}
			if err != nil {
				t.Fatalf("op %d on %q: %v", ops, name, err)
			}
			checkModel(t, st.Snapshot(), ref, queries)
			if n, ok := st.RowCount(name); !ok || n != len(ref.rows) {
				t.Fatalf("RowCount(%q) = %d, %v; want %d", name, n, ok, len(ref.rows))
			}
			for _, p := range pins {
				checkModel(t, p.v, p.ref, nil)
			}
		}
		for _, p := range pins {
			checkModel(t, p.v, p.ref, queries)
		}
	})
}

// checkModel compares one store view with the model at the same epoch:
// epoch, rows in order, rowids, and each of queries answered twice
// through the columnar plan (a scan, then the postings) against the
// row interpreter over the model's own table. FuzzStore checks rows
// at every pin after every write and the postings of a pin once, at
// the end: a projection never changes once built.
func checkModel(t *testing.T, v *View, ref refTable, queries []modelQuery) {
	t.Helper()
	if v.Epoch() != ref.epoch {
		t.Fatalf("view at epoch %d, model at %d", v.Epoch(), ref.epoch)
	}
	tab, ok := v.Table("f")
	ids, _ := v.RowIDs("f")
	if !ok || !slices.Equal(ids, ref.ids) || len(tab.Rows) != len(ref.rows) {
		t.Fatalf("epoch %d: rowids %v, want %v", ref.epoch, ids, ref.ids)
	}
	for i := range ref.rows {
		if !reflect.DeepEqual(tab.Rows[i], ref.rows[i]) {
			t.Fatalf("epoch %d row %d (rowid %d): %v, want %v", ref.epoch, i, ids[i], tab.Rows[i], ref.rows[i])
		}
	}
	want := engine.NewTable("f", "k", "v")
	want.Rows = ref.rows
	db := engine.NewDB()
	db.AddTable(want)
	for _, q := range queries {
		exp, err := engine.Exec(db, q.sel)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, ran, err := engine.ExecColumnar(v, q.plan)
			if !ran || err != nil {
				t.Fatalf("k = %s: columnar ran=%v err=%v", q.lit, ran, err)
			}
			if got.Render() != exp.Render() {
				t.Fatalf("epoch %d, k = %s, run %d:\nstore:\n%s\nmodel:\n%s", ref.epoch, q.lit, run, got.Render(), exp.Render())
			}
		}
	}
}
