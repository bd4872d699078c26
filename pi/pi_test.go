package pi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
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

// TestPaperHeadlineGolden pins the paper's headline run (§6, Fig 12):
// the 10,000-entry SDSS log mined with the default options and compiled
// with its dependencies. A change to parsing, mining, mapping or page
// generation that alters any interface must change these values on
// purpose.
func TestPaperHeadlineGolden(t *testing.T) {
	iface, err := Generate(workload.SDSSFullLog(10000, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	page, err := CompileHTMLWithDeps(iface, "Precision Interface", Dependencies(iface))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(page))
	if got, want := hex.EncodeToString(sum[:]), "2da61c5bc86064199172f14b0313f850ddea9976d760d8989957acf6cc06a4c6"; got != want {
		t.Errorf("page sha256 = %s, want %s", got, want)
	}
	st := iface.Stats
	got := fmt.Sprintf("%d/%d/%d/%d/%.2f", st.Comparisons, st.Edges, st.DiffRecords, st.WidgetCount, st.Cost)
	if want := "9999/9885/46124/16/491130.72"; got != want {
		t.Errorf("Comparisons/Edges/DiffRecords/WidgetCount/Cost = %s, want %s", got, want)
	}
}
