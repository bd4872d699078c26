package sqlparser

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

// paperQueries collects every query listing that appears in the paper;
// the parser must accept all of them.
var paperQueries = []string{
	// Figure 3.
	"SELECT cty, sales FROM T WHERE cty = 'USA'",
	"SELECT cty, costs FROM T WHERE cty = 'EUR'",
	// Listing 1 (SDSS).
	"SELECT * FROM SpecLineIndex WHERE specObjId= 0x400 ;",
	"SELECT * FROM XCRedshift WHERE specObjId= 0x199 ;",
	"SELECT * FROM SpecLineIndex WHERE specObjId= 0x3 ;",
	// Listing 2 (OLAP).
	"SELECT COUNT(Delay), DestState FROM ontime WHERE Month =9 and Day=3 GROUP BY DestState;",
	"SELECT DestState FROM ontime WHERE Month= 9 and Day=3 GROUP BY DestState;",
	"SELECT DestState FROM ontime WHERE Month= 8 and Day=3 GROUP BY DestState;",
	// Listing 3 (ad-hoc).
	"SELECT CAST(uniquecarrier) AS uniquecarrier FROM ontime;",
	"SELECT SUM(flights) FROM ontime WHERE canceled = 1 HAVING SUM(flights) > 149 and SUM(flights) < 1354;",
	"SELECT (CASE carrier WHEN 'AA' THEN 'AA' ELSE 'Other' END) AS carrier, FLOOR(distance/5) AS distance FROM ontime;",
	// Listing 4.
	`SELECT spec_ts, sum(price) FROM (
		SELECT action, sum(customer) FROM t
		WHERE spec_ts > now and spec_ts < now + 3
	) WHERE cust = 'Alice' and country = 'China' GROUP BY spec_ts;`,
	// Listing 5.
	"SELECT avg ( a )",
	"SELECT count ( b )",
	// Listing 6 (SDSS UDF).
	"SELECT g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) as d WHERE d.objID = g.objID;",
	"SELECT TOP 1 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) as d WHERE d.objID = g.objID;",
	"SELECT TOP 10 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848, 0.352, 2.0616) as d WHERE d.objID = g.objID;",
	// Listing 7.
	"SELECT * FROM T;",
	"SELECT * FROM (SELECT a FROM T WHERE b > 10);",
	"SELECT * FROM (SELECT a FROM T WHERE b > 20);",
	"SELECT * FROM (SELECT b FROM T WHERE b > 20);",
}

func TestParsePaperQueries(t *testing.T) {
	for _, q := range paperQueries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

// TestRoundTrip checks the unparse/reparse fixpoint: parse(SQL(parse(q)))
// must be structurally equal to parse(q).
func TestRoundTrip(t *testing.T) {
	extra := []string{
		"SELECT DISTINCT a, b AS bb FROM t1, t2 u WHERE a IN (1, 2, 3) ORDER BY a DESC, b LIMIT 5",
		"SELECT a FROM t WHERE x BETWEEN 1 AND 10 AND y NOT IN ('p', 'q')",
		"SELECT a FROM t WHERE NOT (x = 1 OR y LIKE 'ab%')",
		"SELECT a FROM t WHERE y NOT LIKE 'ab%' AND NOT z LIKE 'c'",
		"SELECT a FROM t WHERE x IS NOT NULL AND y IS NULL",
		"SELECT COUNT(*), COUNT(DISTINCT a) FROM t GROUP BY b HAVING COUNT(*) > 2",
		"SELECT -x + 3 * (y - 2) / z % 4 FROM t",
		"SELECT CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END FROM t",
		"SELECT CASE a WHEN 1 THEN 'one' END FROM t",
		"SELECT t.* FROM db.schema_tbl t",
		"SELECT a FROM t WHERE id = 0xDEADbeef",
		"SELECT a FROM t WHERE v = 1.5e3 OR v = .5",
		"SELECT a FROM t WHERE c IN (SELECT c FROM u WHERE d = 2)",
		"SELECT CAST(a AS int) FROM t",
		"SELECT TRUE, FALSE, NULL FROM t",
		// Quoted identifiers keep their quotes wherever the bare text
		// would read as something else.
		`SELECT "0", "select", [x y].c, "a.b", "a."."b c".*, "f g"(1) FROM "my tab" AS [t 1], [dbo].Galaxy`,
		"SELECT a `from`, CAST(b AS \"big int\") FROM [a\"b], `c]\"d`",
		"SELECT - -x, a - -1 FROM t ORDER BY a ASC, b DESC",
	}
	for _, q := range append(append([]string{}, paperQueries...), extra...) {
		first, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		rendered := ast.SQL(first)
		second, err := Parse(rendered)
		if err != nil {
			t.Errorf("reparse of %q (rendered %q): %v", q, rendered, err)
			continue
		}
		if !ast.Equal(first, second) {
			t.Errorf("round trip changed tree for %q:\nrendered: %s\nfirst:  %s\nsecond: %s",
				q, rendered, first, second)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET a = 1",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE x = ",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t WHERE 'unterminated",
		"SELECT a FROM t WHERE x = 0x",
		"SELECT a b c FROM t",
		"SELECT a FROM t WHERE x ! 1",
		"SELECT a FROM (SELECT b FROM t",
		"SELECT TOP 1 a FROM t LIMIT 2",
		`SELECT ""`,
		"SELECT a FROM []",
		"SELECT a FROM t WHERE x NOT 'like'",
		"SELECT a FROM t WHERE x NOT LIKE",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error, got none", q)
		}
	}
}

func TestFixedSlotLayout(t *testing.T) {
	n := MustParse("SELECT a FROM t")
	if len(n.Children) != ast.NumSlots {
		t.Fatalf("Select has %d slots, want %d", len(n.Children), ast.NumSlots)
	}
	if !ast.IsEmptyClause(n.Child(ast.SlotWhere)) {
		t.Fatal("absent WHERE should be an empty clause node")
	}
	n2 := MustParse("SELECT a FROM t WHERE b = 1")
	if ast.IsEmptyClause(n2.Child(ast.SlotWhere)) {
		t.Fatal("present WHERE should not be empty")
	}
	// Paths from the paper: Table 1 path 0/1 is the second ProjClause.
	n3 := MustParse("SELECT cty, sales FROM T WHERE cty = 'USA'")
	p := ast.Path{0, 1}
	if got := n3.At(p); got == nil || got.Type != ast.TypeProjClause {
		t.Fatalf("At(0/1) = %v, want ProjClause", got)
	}
	// 2=Where, 0=BiExpr, ... our Where wraps the expression, so 2/0 is
	// the BiExpr and 2/0/1 its string literal.
	p2 := ast.Path{ast.SlotWhere, 0, 1}
	if got := n3.At(p2); got == nil || got.Value() != "USA" {
		t.Fatalf("WHERE literal lookup failed: %v (path %v)", got, p2)
	}
	_ = p2
}

func TestHexLiteral(t *testing.T) {
	n := MustParse("SELECT * FROM SpecLineIndex WHERE specObjId = 0x400")
	lit := n.At(ast.Path{ast.SlotWhere, 0, 1})
	if lit == nil || lit.Type != ast.TypeNumExpr || lit.Attr("fmt") != "hex" {
		t.Fatalf("hex literal parsed wrong: %v", lit)
	}
	if ast.KindOf(lit) != ast.KindNumber {
		t.Fatal("hex literal should have number kind (paper Fig 6b maps it to a slider)")
	}
}

func TestTopClause(t *testing.T) {
	n := MustParse("SELECT TOP 10 a FROM t")
	lim := n.Child(ast.SlotLimit)
	if ast.IsEmptyClause(lim) || lim.Attr("kind") != "top" {
		t.Fatalf("TOP clause missing: %v", lim)
	}
	if v := lim.Child(0).Value(); v != "10" {
		t.Fatalf("TOP value = %q", v)
	}
	// LIMIT lands in the same slot, so TOP-add diffs stay path-stable.
	n2 := MustParse("SELECT a FROM t LIMIT 10")
	if n2.Child(ast.SlotLimit).Attr("kind") != "limit" {
		t.Fatal("LIMIT kind wrong")
	}
}

func TestTableFunction(t *testing.T) {
	n := MustParse("SELECT g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.8, 0.3, 2.0) as d")
	from := n.Child(ast.SlotFrom)
	if from.NumChildren() != 2 {
		t.Fatalf("FROM has %d items", from.NumChildren())
	}
	tf := from.Child(1).Child(0)
	if tf.Type != ast.TypeTabFunc {
		t.Fatalf("second FROM item is %s, want TabFunc", tf.Type)
	}
	if name := tf.Child(0).Value(); name != "dbo.fgetnearbyobjeq" {
		t.Fatalf("function name = %q", name)
	}
	if tf.NumChildren() != 4 { // name + 3 args
		t.Fatalf("TabFunc children = %d", tf.NumChildren())
	}
	if from.Child(1).Attr("alias") != "d" {
		t.Fatal("alias lost")
	}
}

func TestQualifiedColumn(t *testing.T) {
	n := MustParse("SELECT g.objID FROM Galaxy g")
	col := n.At(ast.Path{ast.SlotProject, 0, 0})
	if col.Type != ast.TypeColExpr || col.Value() != "objID" || col.Attr("table") != "g" {
		t.Fatalf("qualified column parsed wrong: %v", col)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	n := MustParse("SELECT * FROM (SELECT a FROM T WHERE b > 10)")
	sq := n.At(ast.Path{ast.SlotFrom, 0, 0})
	if sq.Type != ast.TypeSubQuery {
		t.Fatalf("FROM item is %s", sq.Type)
	}
	inner := sq.Child(0)
	if inner.Type != ast.TypeSelect || len(inner.Children) != ast.NumSlots {
		t.Fatal("inner select malformed")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	q := "SELECT /* block\ncomment */ a -- trailing\nFROM t"
	n, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := ast.SQL(n); !strings.Contains(got, "FROM t") {
		t.Fatalf("rendered: %q", got)
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE x ==")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Pos <= 0 {
		t.Fatalf("error position %d", perr.Pos)
	}
}
