package vis

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparser"
)

func barTable() *engine.Table {
	t := engine.NewTable("r", "state", "total")
	t.MustAddRow(engine.Str("CA"), engine.Num(120))
	t.MustAddRow(engine.Str("NY"), engine.Num(80))
	t.MustAddRow(engine.Str("TX"), engine.Num(95))
	return t
}

func TestChooseBar(t *testing.T) {
	spec := Choose(barTable())
	if spec.Kind != KindBar || spec.X != 0 || spec.Y != 1 {
		t.Fatalf("spec = %+v, want bar(state, total)", spec)
	}
}

func TestChooseLine(t *testing.T) {
	tbl := engine.NewTable("r", "day", "delay")
	for d := 1; d <= 10; d++ {
		tbl.MustAddRow(engine.Num(float64(d)), engine.Num(float64(d*d%7)))
	}
	spec := Choose(tbl)
	if spec.Kind != KindLine || spec.X != 0 || spec.Y != 1 {
		t.Fatalf("spec = %+v, want line(day, delay)", spec)
	}
}

func TestChooseScatter(t *testing.T) {
	tbl := engine.NewTable("r", "x", "y")
	// Unordered x kills the line rule.
	for _, v := range []float64{5, 1, 9, 3, 7} {
		tbl.MustAddRow(engine.Num(v), engine.Num(v*2))
	}
	spec := Choose(tbl)
	if spec.Kind != KindScatter {
		t.Fatalf("spec = %+v, want scatter", spec)
	}
}

func TestChooseTableFallbacks(t *testing.T) {
	// One column: table.
	one := engine.NewTable("r", "a")
	one.MustAddRow(engine.Num(1))
	if spec := Choose(one); spec.Kind != KindTable {
		t.Fatalf("one column -> %v", spec.Kind)
	}
	// Empty: table.
	if spec := Choose(engine.NewTable("r", "a", "b")); spec.Kind != KindTable {
		t.Fatalf("empty -> %v", spec.Kind)
	}
	// Two string columns: table.
	ss := engine.NewTable("r", "a", "b")
	ss.MustAddRow(engine.Str("x"), engine.Str("y"))
	ss.MustAddRow(engine.Str("p"), engine.Str("q"))
	if spec := Choose(ss); spec.Kind != KindTable {
		t.Fatalf("two strings -> %v", spec.Kind)
	}
	// High-cardinality categorical falls through to table (no y pairing
	// with 30+ bars).
	hc := engine.NewTable("r", "id", "name")
	for i := 0; i < 30; i++ {
		hc.MustAddRow(engine.Str(strings.Repeat("x", i+1)), engine.Str("n"))
	}
	if spec := Choose(hc); spec.Kind != KindTable {
		t.Fatalf("high-cardinality strings -> %v", spec.Kind)
	}
}

func TestRenderSVGWellFormed(t *testing.T) {
	svg := RenderSVG(barTable(), Spec{Kind: KindBar, X: 0, Y: 1}, 480, 280)
	for _, frag := range []string{"<svg", "</svg>", "<rect", "CA", "state", "total"} {
		if !strings.Contains(svg, frag) {
			t.Errorf("svg missing %q", frag)
		}
	}
	if strings.Count(svg, "<rect") < 4 { // background + 3 bars
		t.Fatalf("expected 3 bars, svg: %s", svg)
	}
}

func TestRenderSVGEscapes(t *testing.T) {
	tbl := engine.NewTable("r", "<script>", "y")
	tbl.MustAddRow(engine.Str("<b>"), engine.Num(1))
	svg := RenderSVG(tbl, Spec{Kind: KindBar, X: 0, Y: 1}, 200, 200)
	if strings.Contains(svg, "<script>") || strings.Contains(svg, "><b><") {
		t.Fatal("unescaped content in SVG")
	}
}

func TestRenderDispatch(t *testing.T) {
	// Chart case yields SVG; table case yields the ASCII grid.
	if out := Render(barTable()); !strings.HasPrefix(out, "<svg") {
		t.Fatalf("bar table should render SVG, got %q", out[:20])
	}
	ss := engine.NewTable("r", "a", "b")
	ss.MustAddRow(engine.Str("x"), engine.Str("y"))
	if out := Render(ss); strings.HasPrefix(out, "<svg") {
		t.Fatal("string table should render as grid")
	}
}

func TestRenderSVGDegenerate(t *testing.T) {
	// Constant y must not divide by zero.
	tbl := engine.NewTable("r", "k", "v")
	tbl.MustAddRow(engine.Str("a"), engine.Num(5))
	tbl.MustAddRow(engine.Str("b"), engine.Num(5))
	svg := RenderSVG(tbl, Spec{Kind: KindBar, X: 0, Y: 1}, 200, 200)
	if !strings.Contains(svg, "</svg>") || strings.Contains(svg, "NaN") {
		t.Fatalf("degenerate chart broken: %s", svg)
	}
	// Line with single point.
	p := engine.NewTable("r", "x", "y")
	p.MustAddRow(engine.Num(1), engine.Num(2))
	svg2 := RenderSVG(p, Spec{Kind: KindLine, X: 0, Y: 1}, 200, 200)
	if strings.Contains(svg2, "NaN") {
		t.Fatal("NaN in single-point line chart")
	}
}

// End to end: an executed OLAP query renders as a bar chart.
func TestEndToEndWithEngine(t *testing.T) {
	db := engine.OnTimeDB(500)
	// deststate (categorical) + count (quantitative).
	q, err := sqlparser.Parse("SELECT deststate, COUNT(*) FROM ontime GROUP BY deststate")
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(db, q)
	if err != nil {
		t.Fatal(err)
	}
	spec := Choose(res)
	if spec.Kind != KindBar {
		t.Fatalf("OLAP result should chart as bars, got %v", spec.Kind)
	}
	if svg := Render(res); !strings.HasPrefix(svg, "<svg") {
		t.Fatal("render did not produce SVG")
	}
}
