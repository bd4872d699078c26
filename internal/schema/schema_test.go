package schema

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

func parseAll(t *testing.T, sqls ...string) []*ast.Node {
	t.Helper()
	out := make([]*ast.Node, len(sqls))
	for i, s := range sqls {
		out[i] = sqlparser.MustParse(s)
	}
	return out
}

func TestInferFromQueries(t *testing.T) {
	qs := parseAll(t,
		"SELECT ew, z FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT tempNo FROM XCRedshift WHERE specObjId = 0x199",
		"SELECT g.objID FROM Galaxy g WHERE g.redshift > 1",
	)
	c := InferFromQueries(qs)
	if !c.HasTable("speclineindex") || !c.HasTable("xcredshift") || !c.HasTable("galaxy") {
		t.Fatalf("catalog = %v", c.tables)
	}
	if !c.HasColumn("SpecLineIndex", "ew") || !c.HasColumn("speclineindex", "specobjid") {
		t.Fatalf("SpecLineIndex columns = %v", c.tables["speclineindex"])
	}
	if !c.HasColumn("galaxy", "objid") || !c.HasColumn("galaxy", "redshift") {
		t.Fatalf("Galaxy columns = %v", c.tables["galaxy"])
	}
	if c.HasColumn("galaxy", "ew") {
		t.Fatal("ew must not leak into Galaxy")
	}
}

// TestValidateCrossTableMixups reproduces the Appendix D failure mode:
// a purely syntactic interface can combine an attribute from table T
// with table S in FROM; Validate must reject it.
func TestValidateCrossTableMixups(t *testing.T) {
	c := InferFromQueries(parseAll(t,
		"SELECT ew FROM SpecLineIndex",
		"SELECT tempNo FROM XCRedshift",
	))
	valid := parseAll(t, "SELECT ew FROM SpecLineIndex")[0]
	if !c.Valid(valid) {
		t.Fatalf("valid query rejected: %v", c.Validate(valid))
	}
	// Column ew picked with table XCRedshift: the nonsensical mix.
	invalid := parseAll(t, "SELECT ew FROM XCRedshift")[0]
	if c.Valid(invalid) {
		t.Fatal("cross-table mixup accepted")
	}
	// Unknown table entirely.
	unknown := parseAll(t, "SELECT ew FROM NoSuchTable")[0]
	if c.Valid(unknown) {
		t.Fatal("unknown table accepted")
	}
}

func TestValidateQualifiedAndAliases(t *testing.T) {
	c := InferFromQueries(parseAll(t,
		"SELECT g.objID, g.redshift FROM Galaxy g",
	))
	ok := parseAll(t, "SELECT g.objID FROM Galaxy AS g")[0]
	if !c.Valid(ok) {
		t.Fatalf("aliased query rejected: %v", c.Validate(ok))
	}
	bad := parseAll(t, "SELECT g.nonexistent FROM Galaxy g")[0]
	if c.Valid(bad) {
		t.Fatal("unknown qualified column accepted")
	}
}

func TestValidateSubqueries(t *testing.T) {
	c := InferFromQueries(parseAll(t,
		"SELECT a FROM t WHERE b > 10",
	))
	ok := parseAll(t, "SELECT * FROM (SELECT a FROM t WHERE b > 20)")[0]
	if !c.Valid(ok) {
		t.Fatalf("subquery rejected: %v", c.Validate(ok))
	}
	bad := parseAll(t, "SELECT * FROM (SELECT zz FROM t)")[0]
	if c.Valid(bad) {
		t.Fatal("bad inner column accepted")
	}
}

func TestValidateTableFunction(t *testing.T) {
	c := InferFromQueries(parseAll(t,
		"SELECT g.objID, d.objID FROM Galaxy g, dbo.fGetNearbyObjEq(5.8, 0.3, 2.0) d",
	))
	q := parseAll(t, "SELECT g.objID FROM Galaxy g, dbo.fGetNearbyObjEq(1.0, 2.0, 3.0) d WHERE d.objID = g.objID")[0]
	if !c.Valid(q) {
		t.Fatalf("UDF query rejected: %v", c.Validate(q))
	}
}

func TestValidateNowPseudoColumn(t *testing.T) {
	c := InferFromQueries(parseAll(t, "SELECT spec_ts FROM t"))
	q := parseAll(t, "SELECT spec_ts FROM t WHERE spec_ts > now")[0]
	if !c.Valid(q) {
		t.Fatalf("now pseudo-column rejected: %v", c.Validate(q))
	}
}

func TestInferIsSelfConsistent(t *testing.T) {
	// Every query a catalog was inferred from must validate against it.
	sqls := []string{
		"SELECT ew, z FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT TOP 5 g.objID FROM Galaxy g WHERE g.redshift > 0.5",
		"SELECT COUNT(delay), deststate FROM ontime WHERE month = 9 GROUP BY deststate",
		"SELECT * FROM (SELECT a FROM t WHERE b > 10)",
		"SELECT carrier, FLOOR(distance/5) FROM ontime HAVING SUM(flights) > 10",
	}
	qs := parseAll(t, sqls...)
	c := InferFromQueries(qs)
	for i, q := range qs {
		if !c.Valid(q) {
			t.Errorf("query %d does not validate against its own catalog: %v", i, c.Validate(q))
		}
	}
}

func TestJoinValidation(t *testing.T) {
	c := InferFromQueries(parseAll(t,
		"SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept = d.did",
	))
	if !c.HasColumn("emp", "dept") || !c.HasColumn("dept", "did") {
		t.Fatalf("ON condition columns not inferred: emp=%v dept=%v",
			c.tables["emp"], c.tables["dept"])
	}
	ok := parseAll(t, "SELECT e.name FROM emp e LEFT JOIN dept d ON e.dept = d.did")[0]
	if !c.Valid(ok) {
		t.Fatalf("join query rejected: %v", c.Validate(ok))
	}
	bad := parseAll(t, "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.nosuch")[0]
	if c.Valid(bad) {
		t.Fatal("bad ON column accepted")
	}
}
