package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// rowPathCorpusSHA256 is the sha256 of every workload statement's
// row-path answer (rendered table, or error text), in corpus order.
// It was generated before the row interpreter stopped copying the
// FROM source and started resolving columns once per query, so it
// pins those optimisations to the interpreter's earlier answers
// without trusting Exec to check itself.
const rowPathCorpusSHA256 = "63ba6b2104069f6a624775437f8f24b502fa543751e333fbd2db7843020cfcd9"

// TestRowPathCorpusGolden runs the olap, adhoc and sdss corpora
// through Exec alone — columnar-eligible or not — and compares the
// hash of all answers with the pinned one.
func TestRowPathCorpusGolden(t *testing.T) {
	onTime := OnTimeDB(300)
	sets := []struct {
		name string
		db   *DB
	}{{"olap", onTime}, {"adhoc", onTime}, {"sdss", SDSSDB(200)}}
	h := sha256.New()
	for _, c := range sets {
		for _, sql := range workloadSQLs(t, c.name) {
			h.Write([]byte(c.name + "\x00" + sql + "\x00"))
			n, err := sqlparser.Parse(sql)
			if err != nil {
				h.Write([]byte("parse: " + err.Error() + "\x00"))
				continue
			}
			res, err := Exec(c.db, n)
			if err != nil {
				h.Write([]byte("error: " + err.Error() + "\x00"))
				continue
			}
			h.Write([]byte(res.Render() + "\x00"))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rowPathCorpusSHA256 {
		t.Fatalf("row-path corpus hash = %s, want %s", got, rowPathCorpusSHA256)
	}
}

// TestNumericLiteralForms pins how a NUM node's text becomes a number:
// the forms the lexer emits, a client's FormatFloat spellings, hex in
// both cases, and the overflows that are errors.
func TestNumericLiteralForms(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		text string
		hex  bool // the parser's fmt=hex attribute
		want float64
		ok   bool
	}{
		{"3", false, 3, true},
		{"003", false, 3, true},
		{"3.", false, 3, true},
		{".5", false, 0.5, true},
		{"1e5", false, 1e5, true},
		{"1E-2", false, 0.01, true},
		{"+3", false, 3, true},
		{"-2.5", false, -2.5, true},
		{"Inf", false, inf, true},
		{"+Inf", false, inf, true},
		{"nan", false, math.NaN(), true},
		{"1e400", false, 0, false},
		{"1e+", false, 0, false},
		{"", false, 0, false},
		{"0x1F", true, 31, true},
		{"0x1F", false, 31, true},
		{"0X1f", true, 31, true},
		{"0xffffffffffffffff", true, math.MaxUint64, true},
		{"0x10000000000000000", true, 0, false},
		{"0x", true, 0, false},
		{"1F", true, 0, false}, // fmt=hex still needs the 0x prefix
	}
	for _, c := range cases {
		n := ast.Leaf(ast.TypeNumExpr, c.text)
		if c.hex {
			n.SetAttr("fmt", "hex")
		}
		got, ok := numericLiteral(n)
		same := got == c.want || (math.IsNaN(got) && math.IsNaN(c.want))
		if ok != c.ok || (ok && !same) {
			t.Errorf("numericLiteral(%q, hex=%v) = %v, %v; want %v, %v", c.text, c.hex, got, ok, c.want, c.ok)
		}
	}
}

// TestRowOLAPAllocs pins BenchmarkRowOLAP's allocation count. A lone
// FROM table is read in place rather than copied row by row, and a
// literal parses without fmt, so the 20k-row query allocates per
// group and per matched row's bookkeeping only; one copy of the table
// alone would cost 20k allocations.
func TestRowOLAPAllocs(t *testing.T) {
	db := OnTimeDB(20000)
	n := sqlparser.MustParse(rowOLAPSQL)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Exec(db, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("row-path OLAP query: %.0f allocations per run, want <= 1000", allocs)
	}
}

// TestExecConcurrentSharedCatalog runs the row path from several
// goroutines over one *DB and one set of interned ASTs. Every answer
// must equal the serial one, and the catalog's rows must be unchanged
// afterwards even though each goroutine overwrites the result rows it
// was handed (under -race, a result row aliasing the catalog is a
// reported race as well as a failure).
func TestExecConcurrentSharedCatalog(t *testing.T) {
	db := OnTimeDB(2000)
	tbl, _ := db.Table("ontime")
	before := &Table{Name: tbl.Name, Cols: tbl.Cols, Rows: make([][]Value, len(tbl.Rows))}
	for i, r := range tbl.Rows {
		before.Rows[i] = append([]Value(nil), r...)
	}
	sqls := []string{
		"SELECT * FROM ontime WHERE Month = 2",
		"SELECT DestState, COUNT(*), AVG(ArrDelay) FROM ontime WHERE DayOfWeek = 3 GROUP BY DestState",
		"SELECT Carrier, Delay FROM ontime WHERE Delay > 100 ORDER BY Delay DESC, Carrier",
		"SELECT DISTINCT OriginState, Month FROM ontime WHERE Day < 4",
		"SELECT * FROM ontime",
		"SELECT Carrier, COUNT(*) FROM ontime GROUP BY Carrier HAVING COUNT(*) > 10 ORDER BY Carrier",
	}
	in := ast.NewInterner()
	nodes := make([]*ast.Node, len(sqls))
	want := make([]*Table, len(sqls))
	for i, sql := range sqls {
		nodes[i] = in.Intern(sqlparser.MustParse(sql))
		res, err := Exec(db, nodes[i])
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want[i] = res
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range sqls {
					q := (i + g) % len(sqls)
					got, err := Exec(db, nodes[q])
					if err != nil || !sameResult(got, want[q]) {
						errs <- fmt.Errorf("worker %d: %s: err=%v, answer differs from the serial one", g, sqls[q], err)
						return
					}
					for _, row := range got.Rows {
						for j := range row {
							row[j] = Null()
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !sameResult(tbl, before) {
		t.Fatal("concurrent Exec calls changed the catalog's rows")
	}
}

// TestSubqueryColumnsResolvePerQuery runs scalar and IN subqueries
// whose inner and outer queries name the same columns, x and id, on
// tables that hold them at different positions. After interning, each
// name is one *ast.Node shared by every query level, so a binding
// memo shared across levels would read the wrong cell.
func TestSubqueryColumnsResolvePerQuery(t *testing.T) {
	db := NewDB()
	outer := NewTable("t", "id", "x")
	outer.MustAddRow(Num(1), Num(10))
	outer.MustAddRow(Num(2), Num(20))
	outer.MustAddRow(Num(3), Num(30))
	inner := NewTable("u", "x", "id")
	inner.MustAddRow(Num(20), Num(7))
	inner.MustAddRow(Num(30), Num(8))
	inner.MustAddRow(Num(40), Num(9))
	db.AddTable(outer)
	db.AddTable(inner)

	n := ast.NewInterner().Intern(sqlparser.MustParse(
		"SELECT id, x, (SELECT MAX(x) FROM u WHERE id > 7) FROM t " +
			"WHERE x IN (SELECT x FROM u WHERE id < 9) ORDER BY id"))
	xs := map[*ast.Node]bool{}
	var walk func(*ast.Node)
	walk = func(m *ast.Node) {
		if m.Type == ast.TypeColExpr && m.Value() == "x" {
			xs[m] = true
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	if len(xs) != 1 {
		t.Fatalf("interning left %d distinct x column nodes, want 1", len(xs))
	}

	res, err := Exec(db, n)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Value{{Num(2), Num(20), Num(40)}, {Num(3), Num(30), Num(40)}}
	if !sameResult(res, &Table{Name: res.Name, Cols: res.Cols, Rows: want}) {
		t.Fatalf("got\n%s", res.Render())
	}
}
