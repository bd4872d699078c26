package engine

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// sameResult compares the three logical fields of a result table —
// the byte-identity contract the columnar kernels promise. It is
// reflect.DeepEqual except that a NaN equals a NaN.
func sameResult(a, b *Table) bool {
	if a.Name != b.Name || !reflect.DeepEqual(a.Cols, b.Cols) ||
		(a.Rows == nil) != (b.Rows == nil) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if (ra == nil) != (rb == nil) || len(ra) != len(rb) {
			return false
		}
		for j, v := range ra {
			w := rb[j]
			sameNum := v.Num == w.Num || (math.IsNaN(v.Num) && math.IsNaN(w.Num))
			if v.Kind != w.Kind || v.Str != w.Str || v.Bool != w.Bool || !sameNum {
				return false
			}
		}
	}
	return true
}

// runColumnar compiles and executes sql through the columnar path.
// ran=false means it fell back (either compile- or exec-time).
func runColumnar(t *testing.T, cat Catalog, sql string) (*Table, error, bool) {
	t.Helper()
	n, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, ok := CompileColumnar(n)
	if !ok {
		return nil, nil, false
	}
	res, ran, err := ExecColumnar(cat, p)
	if !ran {
		return nil, nil, false
	}
	return res, err, true
}

// assertBoth runs sql through both paths and asserts they agree:
// identical tables, or identical errors. wantColumnar pins whether the
// columnar path must have handled it.
func assertBoth(t *testing.T, cat Catalog, sql string, wantColumnar bool) {
	t.Helper()
	if ran := matchBoth(t, cat, sql); ran != wantColumnar {
		t.Fatalf("%q: columnar ran=%v, want %v", sql, ran, wantColumnar)
	}
}

// matchBoth runs sql through both paths and, when the columnar path
// handled it, asserts identical tables or identical errors. The
// columnar plan runs twice, because a column's second `=` lookup
// answers from its postings where the first one scans. It reports
// whether the columnar path ran.
func matchBoth(t *testing.T, cat Catalog, sql string) bool {
	t.Helper()
	n, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	rowRes, rowErr := Exec(cat, n)
	for run := 1; run <= 2; run++ {
		colRes, colErr, ran := runColumnar(t, cat, sql)
		if !ran {
			return false
		}
		if (rowErr == nil) != (colErr == nil) {
			t.Fatalf("%q run %d: row err=%v columnar err=%v", sql, run, rowErr, colErr)
		}
		if rowErr != nil {
			if rowErr.Error() != colErr.Error() {
				t.Fatalf("%q run %d: error mismatch\nrow:      %v\ncolumnar: %v", sql, run, rowErr, colErr)
			}
			continue
		}
		if !sameResult(rowRes, colRes) {
			t.Fatalf("%q run %d: result mismatch\nrow:\n%s\ncolumnar:\n%s", sql, run, rowRes.Render(), colRes.Render())
		}
	}
	return true
}

// mixedDB exercises every column layout: pure numeric, numeric with
// NULLs, dictionary strings with NULLs, numeric-looking strings, and
// a mixed-kind column that must stay boxed.
func mixedDB() *DB {
	db := NewDB()
	tb := NewTable("t", "n", "nn", "s", "ns", "m")
	add := func(n, nn, s, ns, m Value) { tb.MustAddRow(n, nn, s, ns, m) }
	add(Num(1), Num(10), Str("ca"), Str("5"), Num(1))
	add(Num(2), Null(), Str("tx"), Str("05"), Str("x"))
	add(Num(3), Num(30), Null(), Str("abc"), Boolean(true))
	add(Num(4), Num(40), Str("ca"), Str("7"), Null())
	add(Num(5), Null(), Str("CA"), Str("5.0"), Num(2))
	add(Num(1), Num(10), Str("wa"), Str("-3"), Str("x"))
	db.AddTable(tb)
	return db
}

// nanDB is mixedDB plus two rows holding NaN, which compares equal to
// every number.
func nanDB() *DB {
	db := mixedDB()
	tb, _ := db.Table("t")
	nan := Num(math.NaN())
	tb.MustAddRow(nan, nan, Str("ca"), Str("NaN"), nan)
	tb.MustAddRow(nan, Num(10), Str("tx"), Str("5"), Str("x"))
	return db
}

func TestColumnarFiltersMatchRowPath(t *testing.T) {
	db := mixedDB()
	for _, sql := range []string{
		"SELECT n FROM t WHERE n = 1",
		"SELECT n FROM t WHERE n <> 1",
		"SELECT n FROM t WHERE 3 < n",
		"SELECT n FROM t WHERE n >= 2 AND n <= 4",
		"SELECT n, s FROM t WHERE s = 'ca'",
		"SELECT s FROM t WHERE s LIKE 'c%'",
		"SELECT s FROM t WHERE s IS NULL",
		"SELECT s FROM t WHERE s IS NOT NULL",
		"SELECT nn FROM t WHERE nn IS NULL",
		"SELECT n FROM t WHERE n BETWEEN 2 AND 4",
		"SELECT n FROM t WHERE n NOT BETWEEN 2 AND 4",
		"SELECT s FROM t WHERE s IN ('ca', 'wa')",
		"SELECT s FROM t WHERE s NOT IN ('ca', 'wa')",
		// Cross-kind coercion: numeric-looking strings vs numbers.
		"SELECT ns FROM t WHERE ns = 5",
		"SELECT ns FROM t WHERE ns = '05'",
		"SELECT ns FROM t WHERE ns > 4",
		"SELECT ns FROM t WHERE ns BETWEEN -3 AND 6",
		"SELECT n FROM t WHERE n = '2'",
		"SELECT n FROM t WHERE n IN ('1', 3)",
		// NULL literal comparisons are never true; LIKE stringifies NULL.
		"SELECT n FROM t WHERE nn = NULL",
		"SELECT s FROM t WHERE s LIKE 'NU%'",
		// Mixed-kind column: filter and project through the boxed path.
		"SELECT m FROM t WHERE m = 'x'",
		"SELECT m FROM t WHERE m = 1",
		"SELECT * FROM t WHERE n < 3",
		"SELECT t.n, t.s FROM t WHERE t.n <= 2",
		"SELECT a.n FROM t a WHERE a.n = 1",
		"SELECT TOP 2 n FROM t",
		"SELECT n FROM t",
		"SELECT n FROM t WHERE n != 1",
		"SELECT s FROM t WHERE s != 'ca'",
		"SELECT m FROM t WHERE m != 'x'",
		// A NULL BETWEEN bound or IN item.
		"SELECT n FROM t WHERE n BETWEEN NULL AND 4",
		"SELECT n FROM t WHERE n NOT BETWEEN 2 AND NULL",
		"SELECT s FROM t WHERE s BETWEEN NULL AND 'z'",
		"SELECT s FROM t WHERE s IN ('ca', NULL)",
		"SELECT s FROM t WHERE s NOT IN ('ca', NULL)",
		"SELECT nn FROM t WHERE nn NOT IN (10, NULL)",
		// LIKE on a number matches its rendered form.
		"SELECT n FROM t WHERE n LIKE '1%'",
		"SELECT nn FROM t WHERE nn LIKE '%0'",
		"SELECT m FROM t WHERE m LIKE 't%'",
		"SELECT s FROM t WHERE s NOT LIKE 'c%'",
		"SELECT n FROM t WHERE n NOT LIKE '1%'",
		"SELECT m FROM t WHERE m NOT LIKE 't%'",
	} {
		assertBoth(t, db, sql, true)
	}
	nan := nanDB()
	for _, sql := range []string{
		"SELECT n FROM t WHERE n = 1",
		"SELECT n FROM t WHERE n <> 1",
		"SELECT n FROM t WHERE n != 1",
		"SELECT n FROM t WHERE n < 3",
		"SELECT n FROM t WHERE 3 < n",
		"SELECT n FROM t WHERE n BETWEEN 2 AND 4",
		"SELECT n FROM t WHERE n NOT BETWEEN 2 AND 4",
		"SELECT n FROM t WHERE n IN (2, 3)",
		"SELECT n FROM t WHERE n LIKE 'NaN'",
		"SELECT n FROM t WHERE n NOT LIKE 'NaN'",
		"SELECT ns FROM t WHERE ns = 5",
		"SELECT ns FROM t WHERE ns > 'a'",
		"SELECT m FROM t WHERE m = 1",
		"SELECT * FROM t WHERE nn IS NOT NULL",
	} {
		assertBoth(t, nan, sql, true)
	}
}

func TestColumnarAggregatesMatchRowPath(t *testing.T) {
	db := mixedDB()
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(nn) FROM t",
		"SELECT COUNT(s) FROM t",
		"SELECT SUM(n), AVG(n), MIN(n), MAX(n) FROM t",
		"SELECT SUM(nn) FROM t",
		"SELECT MIN(s), MAX(s) FROM t",
		"SELECT SUM(ns) FROM t WHERE ns <> 'abc'",
		"SELECT s, COUNT(*) FROM t GROUP BY s",
		"SELECT s, SUM(n), AVG(nn) FROM t GROUP BY s",
		"SELECT n, COUNT(*) FROM t GROUP BY n",
		"SELECT s, n, COUNT(*) FROM t GROUP BY s, n",
		"SELECT s, MIN(n) AS lo, MAX(n) AS hi FROM t GROUP BY s",
		"SELECT COUNT(*) FROM t WHERE n > 100",
		"SELECT SUM(n) FROM t WHERE n > 100",
		"SELECT MIN(m), MAX(m) FROM t",
		"SELECT COUNT(m) FROM t",
		// Identical error text, surfaced in the same (group, proj) order.
		"SELECT SUM(ns) FROM t",
		"SELECT AVG(ns) FROM t",
		"SELECT s, SUM(ns) FROM t GROUP BY s",
		"SELECT SUM(m) FROM t",
		// Non-grouped projection alongside an aggregate (first-row rule).
		"SELECT s, COUNT(*) FROM t",
	} {
		assertBoth(t, db, sql, true)
	}
	nan := nanDB()
	for _, sql := range []string{
		"SELECT SUM(n), AVG(n), MIN(n), MAX(n) FROM t",
		"SELECT SUM(nn), AVG(nn), MIN(nn), MAX(nn) FROM t",
		"SELECT s, SUM(n), AVG(nn), MIN(n), MAX(n) FROM t GROUP BY s",
		"SELECT s, MIN(nn), MAX(nn) FROM t GROUP BY s",
		"SELECT ns, COUNT(*), SUM(n), MAX(nn) FROM t GROUP BY ns",
		"SELECT MIN(m), MAX(m), COUNT(m) FROM t",
		"SELECT SUM(ns), MIN(ns), MAX(ns) FROM t WHERE ns <> 'abc'",
		"SELECT s, SUM(ns) FROM t GROUP BY s",
	} {
		assertBoth(t, nan, sql, true)
	}
}

func TestColumnarFallbacks(t *testing.T) {
	db := mixedDB()
	for _, sql := range []string{
		"SELECT DISTINCT s FROM t",                                 // DISTINCT
		"SELECT n FROM t ORDER BY n",                               // ORDER BY
		"SELECT s, COUNT(*) FROM t GROUP BY s HAVING COUNT(*) > 1", // HAVING
		"SELECT n FROM t WHERE n = 1 OR n = 2",                     // OR tree
		"SELECT n FROM t WHERE NOT n = 1",                          // unary NOT
		"SELECT FLOOR(n) FROM t",                                   // scalar function
		"SELECT n + 1 FROM t",                                      // arithmetic
		"SELECT m FROM t GROUP BY m",                               // group on mixed column (exec-time)
		"SELECT COUNT(DISTINCT s) FROM t",                          // distinct aggregate
		"SELECT x.n FROM t x, t y",                                 // join
		"SELECT n FROM (SELECT n FROM t) d",                        // subquery FROM
		"SELECT nope FROM t",                                       // unknown column (row path errors)
	} {
		assertBoth(t, db, sql, false)
	}
}

// TestColumnarCachedOnTable: a table hands out the same
// *ColumnarTable on repeat lookups, whatever name the catalog resolved;
// a new table version builds its own projection rather than serving a
// stale one.
func TestColumnarCachedOnTable(t *testing.T) {
	db := mixedDB()
	ta, _ := db.Table("t")
	tb, _ := db.Table("T") // case-insensitive name
	a := ta.Columnar()
	if a != tb.Columnar() {
		t.Fatal("columnar projection not cached")
	}
	next := NewTable("t", "n")
	next.MustAddRow(Num(42))
	c := next.Columnar()
	if c == a {
		t.Fatal("new table version served a stale columnar projection")
	}
	if c.N != 1 || len(c.Cols) != 1 {
		t.Fatalf("new projection has wrong shape: %d rows, %v", c.N, c.Cols)
	}
}

func TestColIndexCachedLookup(t *testing.T) {
	tb := NewTable("x", "Alpha", "beta", "ALPHA", "Gamma")
	cases := []struct {
		name string
		want int
	}{
		{"alpha", 0}, {"Alpha", 0}, {"ALPHA", 0},
		{"beta", 1}, {"BETA", 1},
		{"gamma", 3},
		{"missing", -1},
	}
	for round := 0; round < 2; round++ { // cold then cached
		for _, c := range cases {
			if got := tb.ColIndex(c.name); got != c.want {
				t.Fatalf("round %d: ColIndex(%q) = %d, want %d", round, c.name, got, c.want)
			}
		}
	}
}

// TestColumnarCorpusIdentical is the property test over the mined
// widget corpus: every query of the three workload generators runs
// through both paths, and whenever the columnar path takes a query it
// must reproduce the row path's result (or error) exactly. A coverage
// floor keeps the plan compiler honest — if it silently starts
// rejecting the OLAP widget shapes, falling back "safely" on
// everything, this fails.
func TestColumnarCorpusIdentical(t *testing.T) {
	type corpus struct {
		name string
		db   *DB
		sqls []string
	}
	var sets []corpus

	onTime := OnTimeDB(300)
	var olap []string
	olap = append(olap, workloadSQLs(t, "olap")...)
	sets = append(sets, corpus{"olap", onTime, olap})
	sets = append(sets, corpus{"adhoc", onTime, workloadSQLs(t, "adhoc")})
	sets = append(sets, corpus{"sdss", SDSSDB(200), workloadSQLs(t, "sdss")})

	for _, c := range sets {
		ranCount := 0
		for _, sql := range c.sqls {
			n, err := sqlparser.Parse(sql)
			if err != nil {
				continue // the miner skips unparsable statements too
			}
			rowRes, rowErr := Exec(c.db, n)
			p, ok := CompileColumnar(n)
			if !ok {
				continue
			}
			colRes, ran, colErr := ExecColumnar(c.db, p)
			if !ran {
				continue
			}
			ranCount++
			if (rowErr == nil) != (colErr == nil) {
				t.Fatalf("[%s] %q: row err=%v columnar err=%v", c.name, sql, rowErr, colErr)
			}
			if rowErr != nil {
				if rowErr.Error() != colErr.Error() {
					t.Fatalf("[%s] %q: error mismatch\nrow:      %v\ncolumnar: %v", c.name, sql, rowErr, colErr)
				}
				continue
			}
			if !sameResult(rowRes, colRes) {
				t.Fatalf("[%s] %q: result mismatch\nrow:\n%s\ncolumnar:\n%s",
					c.name, sql, rowRes.Render(), colRes.Render())
			}
		}
		t.Logf("[%s] columnar handled %d/%d queries", c.name, ranCount, len(c.sqls))
		if c.name == "olap" && ranCount*2 < len(c.sqls) {
			t.Fatalf("[olap] columnar coverage collapsed: %d/%d", ranCount, len(c.sqls))
		}
	}
}

func BenchmarkColumnarOLAP(b *testing.B) {
	db := OnTimeDB(20000)
	sql := "SELECT DestState, COUNT(*), AVG(ArrDelay) FROM ontime WHERE Month = 2 AND DayOfWeek = 3 GROUP BY DestState"
	n, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	p, ok := CompileColumnar(n)
	if !ok {
		b.Fatal("query did not compile columnar")
	}
	tab, _ := db.Table("ontime")
	tab.Columnar() // build outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ran, err := ExecColumnar(db, p); !ran || err != nil {
			b.Fatalf("ran=%v err=%v", ran, err)
		}
	}
}

// rowOLAPSQL is BenchmarkRowOLAP's query, the OLAP widget shape.
const rowOLAPSQL = "SELECT DestState, COUNT(*), AVG(ArrDelay) FROM ontime WHERE Month = 2 AND DayOfWeek = 3 GROUP BY DestState"

func BenchmarkRowOLAP(b *testing.B) {
	db := OnTimeDB(20000)
	n, err := sqlparser.Parse(rowOLAPSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(db, n); err != nil {
			b.Fatal(err)
		}
	}
}

// workloadSQLs pulls the mined-widget corpus out of the in-tree
// workload generators (deterministic seeds, same shapes the miner and
// smokes use).
func workloadSQLs(t testing.TB, name string) []string {
	t.Helper()
	switch name {
	case "olap":
		return workload.OLAPLog(150, 7).SQLs()
	case "adhoc":
		return workload.AdhocLog(100, 7).SQLs()
	case "sdss":
		var out []string
		for _, l := range workload.SDSSClients(4, 40, 7) {
			out = append(out, l.SQLs()...)
		}
		return out
	}
	t.Fatalf("unknown corpus %q", name)
	return nil
}
