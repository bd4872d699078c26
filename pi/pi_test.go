package pi

import (
	"strings"
	"testing"
)

func sdssLog() *Log {
	return LogFromSQL(
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x199",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x3",
	)
}

func TestEndToEnd(t *testing.T) {
	iface, err := Generate(sdssLog(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(iface.Widgets) != 1 || iface.Widgets[0].Type.Name != "slider" {
		t.Fatalf("widgets = %v", iface.Widgets)
	}
	page, err := CompileHTML(iface, "SDSS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "PI_STATE") {
		t.Fatal("page missing state")
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	q, err := ParseSQL("SELECT TOP 3 a FROM t WHERE x = 0xff GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSQL(RenderSQL(q))
	if err != nil {
		t.Fatal(err)
	}
	if RenderSQL(q) != RenderSQL(again) {
		t.Fatalf("round trip changed SQL: %q vs %q", RenderSQL(q), RenderSQL(again))
	}
}

func TestDependenciesAndCompile(t *testing.T) {
	iface, err := Generate(LogFromSQL(
		"SELECT g.objID FROM Galaxy g",
		"SELECT TOP 1 g.objID FROM Galaxy g",
		"SELECT TOP 10 g.objID FROM Galaxy g"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	deps := Dependencies(iface)
	if len(deps) != 1 {
		t.Fatalf("deps = %v", deps)
	}
	page, err := CompileHTMLWithDeps(iface, "deps", deps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "\"deps\"") || !strings.Contains(page, "applyDeps") {
		t.Fatal("dependency wiring missing from page")
	}
}

func TestQueryDistance(t *testing.T) {
	a, _ := ParseSQL("SELECT a FROM t WHERE x = 1")
	b, _ := ParseSQL("SELECT a FROM t WHERE x = 2")
	c, _ := ParseSQL("SELECT COUNT(q), z FROM other GROUP BY z ORDER BY z")
	if d := QueryDistance(a, b); d <= 0 || d > 0.2 {
		t.Fatalf("near distance = %v", d)
	}
	if QueryDistance(a, c) <= QueryDistance(a, b) {
		t.Fatal("unrelated queries should be farther apart")
	}
}

func TestExecFacade(t *testing.T) {
	db := NewDB()
	tbl := NewTable("t", "a")
	tbl.MustAddRow(Num(7))
	db.AddTable(tbl)
	q, _ := ParseSQL("SELECT a FROM t WHERE a > 1")
	res, err := Exec(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
