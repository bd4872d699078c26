package engine

import (
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

func exec(t *testing.T, db *DB, sql string) *Table {
	t.Helper()
	res, err := Exec(db, sqlparser.MustParse(sql))
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func smallDB() *DB {
	db := NewDB()
	tbl := NewTable("sales", "region", "product", "amount", "qty")
	tbl.MustAddRow(Str("USA"), Str("widget"), Num(100), Num(1))
	tbl.MustAddRow(Str("USA"), Str("gadget"), Num(250), Num(2))
	tbl.MustAddRow(Str("EUR"), Str("widget"), Num(80), Num(1))
	tbl.MustAddRow(Str("EUR"), Str("gadget"), Num(120), Num(3))
	tbl.MustAddRow(Str("JPN"), Str("widget"), Num(60), Num(2))
	db.AddTable(tbl)
	return db
}

func TestSelectStar(t *testing.T) {
	res := exec(t, smallDB(), "SELECT * FROM sales")
	if len(res.Rows) != 5 || len(res.Cols) != 4 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Cols))
	}
}

func TestWhereFilter(t *testing.T) {
	res := exec(t, smallDB(), "SELECT product FROM sales WHERE region = 'USA'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res2 := exec(t, smallDB(), "SELECT product FROM sales WHERE amount > 100 AND region = 'EUR'")
	if len(res2.Rows) != 1 || res2.Rows[0][0].Str != "gadget" {
		t.Fatalf("rows = %v", res2.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	res := exec(t, smallDB(),
		"SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM sales GROUP BY region")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// First group is USA (first appearance order).
	row := res.Rows[0]
	if row[0].Str != "USA" || row[1].Num != 2 || row[2].Num != 350 || row[3].Num != 175 ||
		row[4].Num != 100 || row[5].Num != 250 {
		t.Fatalf("USA group = %v", row)
	}
}

func TestGlobalAggregate(t *testing.T) {
	res := exec(t, smallDB(), "SELECT COUNT(*), SUM(qty) FROM sales")
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 5 || res.Rows[0][1].Num != 9 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	res := exec(t, smallDB(), "SELECT COUNT(DISTINCT product) FROM sales")
	if res.Rows[0][0].Num != 2 {
		t.Fatalf("count distinct = %v", res.Rows[0][0])
	}
}

func TestHaving(t *testing.T) {
	res := exec(t, smallDB(),
		"SELECT region, SUM(amount) FROM sales GROUP BY region HAVING SUM(amount) > 150")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAndTop(t *testing.T) {
	res := exec(t, smallDB(), "SELECT product, amount FROM sales ORDER BY amount DESC")
	if res.Rows[0][1].Num != 250 || res.Rows[len(res.Rows)-1][1].Num != 60 {
		t.Fatalf("order wrong: %v", res.Rows)
	}
	top := exec(t, smallDB(), "SELECT TOP 2 product, amount FROM sales ORDER BY amount DESC")
	if len(top.Rows) != 2 || top.Rows[0][1].Num != 250 {
		t.Fatalf("top wrong: %v", top.Rows)
	}
	lim := exec(t, smallDB(), "SELECT product FROM sales LIMIT 3")
	if len(lim.Rows) != 3 {
		t.Fatalf("limit wrong: %d", len(lim.Rows))
	}
}

func TestDistinct(t *testing.T) {
	res := exec(t, smallDB(), "SELECT DISTINCT product FROM sales")
	if len(res.Rows) != 2 {
		t.Fatalf("distinct rows = %d", len(res.Rows))
	}
}

func TestSubqueryInFrom(t *testing.T) {
	res := exec(t, smallDB(),
		"SELECT COUNT(*) FROM (SELECT product FROM sales WHERE amount > 90)")
	if res.Rows[0][0].Num != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestInAndBetweenAndLike(t *testing.T) {
	if got := exec(t, smallDB(), "SELECT product FROM sales WHERE region IN ('USA', 'JPN')"); len(got.Rows) != 3 {
		t.Fatalf("IN rows = %d", len(got.Rows))
	}
	if got := exec(t, smallDB(), "SELECT product FROM sales WHERE amount BETWEEN 80 AND 120"); len(got.Rows) != 3 {
		t.Fatalf("BETWEEN rows = %d", len(got.Rows))
	}
	if got := exec(t, smallDB(), "SELECT product FROM sales WHERE product LIKE 'wid%'"); len(got.Rows) != 3 {
		t.Fatalf("LIKE rows = %d", len(got.Rows))
	}
	if got := exec(t, smallDB(), "SELECT product FROM sales WHERE product NOT LIKE 'wid%'"); len(got.Rows) != 2 {
		t.Fatalf("NOT LIKE rows = %d", len(got.Rows))
	}
	if got := exec(t, smallDB(), "SELECT product FROM sales WHERE amount NOT BETWEEN 80 AND 120"); len(got.Rows) != 2 {
		t.Fatalf("NOT BETWEEN rows = %d", len(got.Rows))
	}
}

func TestInSubquery(t *testing.T) {
	res := exec(t, smallDB(),
		"SELECT region FROM sales WHERE product IN (SELECT product FROM sales WHERE amount > 200)")
	if len(res.Rows) != 2 { // gadget rows
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	res := exec(t, smallDB(), `SELECT (CASE region WHEN 'USA' THEN 'domestic' ELSE 'intl' END) AS kind,
		COUNT(*) FROM sales GROUP BY (CASE region WHEN 'USA' THEN 'domestic' ELSE 'intl' END)`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "kind" {
		t.Fatalf("alias lost: %v", res.Cols)
	}
}

func TestScalarFunctionsAndArithmetic(t *testing.T) {
	res := exec(t, smallDB(), "SELECT FLOOR(amount/100), amount % 7, -qty FROM sales WHERE product = 'gadget' AND region = 'USA'")
	row := res.Rows[0]
	if row[0].Num != 2 || row[1].Num != 5 || row[2].Num != -2 {
		t.Fatalf("row = %v", row)
	}
}

func TestCast(t *testing.T) {
	res := exec(t, smallDB(), "SELECT CAST(amount AS int), CAST(qty) FROM sales WHERE region = 'JPN'")
	if res.Rows[0][0].Num != 60 || res.Rows[0][1].Num != 2 {
		t.Fatalf("cast row = %v", res.Rows[0])
	}
}

func TestQualifiedColumnsAndJoin(t *testing.T) {
	db := SDSSDB(50)
	res := exec(t, db,
		"SELECT g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) as d WHERE d.objID = g.objID")
	if len(res.Rows) == 0 {
		t.Fatal("UDF join returned no rows; fGetNearbyObjEq should reuse Galaxy ids")
	}
	top := exec(t, db,
		"SELECT TOP 1 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) as d WHERE d.objID = g.objID")
	if len(top.Rows) != 1 {
		t.Fatalf("TOP 1 returned %d rows", len(top.Rows))
	}
}

func TestListing4Executes(t *testing.T) {
	db := TinyDB()
	res := exec(t, db, `SELECT spec_ts, sum(price) FROM (
		SELECT spec_ts, action, price FROM t WHERE spec_ts > now AND spec_ts < now + 3
	) WHERE action = 'act1' GROUP BY spec_ts`)
	for _, row := range res.Rows {
		if v := row[0].Num; v <= 0 || v >= 3 {
			t.Fatalf("spec_ts out of range: %v", v)
		}
	}
}

func TestOLAPListing2Executes(t *testing.T) {
	db := OnTimeDB(500)
	res := exec(t, db,
		"SELECT COUNT(delay), deststate FROM ontime WHERE month = 9 AND day = 3 GROUP BY deststate")
	for _, row := range res.Rows {
		if row[0].Kind != KindNumber {
			t.Fatalf("count not numeric: %v", row)
		}
	}
	res2 := exec(t, db,
		"SELECT SUM(flights) FROM ontime WHERE canceled = 1 HAVING SUM(flights) > 1")
	if len(res2.Rows) > 1 {
		t.Fatalf("global aggregate rows = %d", len(res2.Rows))
	}
}

func TestUnknownTableAndColumnErrors(t *testing.T) {
	db := smallDB()
	if _, err := Exec(db, sqlparser.MustParse("SELECT a FROM nope")); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := Exec(db, sqlparser.MustParse("SELECT nope FROM sales")); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := Exec(db, sqlparser.MustParse("SELECT s.amount FROM sales")); err == nil {
		t.Fatal("unknown qualifier must error")
	}
	// A column is resolved when it is first evaluated, so a predicate
	// over an empty table never reports one.
	empty := NewDB()
	empty.AddTable(NewTable("e", "a"))
	if res, err := Exec(empty, sqlparser.MustParse("SELECT a FROM e WHERE nope = 1")); err != nil || len(res.Rows) != 0 {
		t.Fatalf("empty table, unknown WHERE column: %v, %v", res, err)
	}
	_, err := Exec(db, sqlparser.MustParse("SELECT amount FROM sales WHERE region = 'USA' AND s.nope = 1"))
	if err == nil || err.Error() != "engine: unknown column s.nope" {
		t.Fatalf("unknown qualified column: %v", err)
	}
}

func TestNullSemantics(t *testing.T) {
	db := NewDB()
	tbl := NewTable("n", "a")
	tbl.MustAddRow(Num(1))
	tbl.MustAddRow(Null())
	db.AddTable(tbl)
	if got := exec(t, db, "SELECT a FROM n WHERE a IS NULL"); len(got.Rows) != 1 {
		t.Fatalf("IS NULL rows = %d", len(got.Rows))
	}
	if got := exec(t, db, "SELECT a FROM n WHERE a IS NOT NULL"); len(got.Rows) != 1 {
		t.Fatalf("IS NOT NULL rows = %d", len(got.Rows))
	}
	if got := exec(t, db, "SELECT a FROM n WHERE a = a"); len(got.Rows) != 1 {
		t.Fatal("NULL = NULL must not match")
	}
	// Aggregates skip NULLs.
	if got := exec(t, db, "SELECT COUNT(a), COUNT(*) FROM n"); got.Rows[0][0].Num != 1 || got.Rows[0][1].Num != 2 {
		t.Fatalf("count semantics: %v", got.Rows[0])
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	res := exec(t, smallDB(), "SELECT amount / 0 FROM sales WHERE region = 'JPN'")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("x/0 = %v, want NULL", res.Rows[0][0])
	}
}

func TestRender(t *testing.T) {
	res := exec(t, smallDB(), "SELECT region, SUM(amount) AS total FROM sales GROUP BY region")
	out := res.Render()
	if !strings.Contains(out, "region") || !strings.Contains(out, "total") || !strings.Contains(out, "350") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"widget", "wid%", true},
		{"widget", "%get", true},
		{"widget", "w_dget", true},
		{"widget", "gadget", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"AA", "aa", true}, // case-insensitive
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if Compare(Num(1), Num(2)) >= 0 || Compare(Str("b"), Str("a")) <= 0 {
		t.Fatal("basic compare wrong")
	}
	if Compare(Num(10), Str("10")) != 0 {
		t.Fatal("numeric coercion in compare failed")
	}
	if Compare(Null(), Num(0)) != -1 {
		t.Fatal("NULL should sort first")
	}
	if Equal(Null(), Null()) {
		t.Fatal("NULL must not equal NULL")
	}
	if Null().Key() != Null().Key() {
		t.Fatal("NULL grouping keys must agree")
	}
}
