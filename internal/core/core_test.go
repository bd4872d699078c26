package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
)

// allPairs mines every pair with full ancestors — the baseline
// configuration, used by the Figure 5 micro-logs.
func allPairs() Options {
	o := DefaultOptions()
	o.Miner = interaction.Options{WindowSize: 0, LCAPrune: false}
	return o
}

func widgetTypes(i *Interface) []string {
	var out []string
	for _, w := range i.Widgets {
		out = append(out, w.Type.Name)
	}
	sort.Strings(out)
	return out
}

func generate(t *testing.T, opts Options, sqls ...string) *Interface {
	t.Helper()
	iface, err := Generate(qlog.FromSQL(sqls...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

// --- Figure 5a: Listing 4, simple parameter changes in a complex query.
func listing4Log() []string {
	tmpl := `SELECT spec_ts, sum(price) FROM (
		SELECT action, sum(customer) FROM t
		WHERE spec_ts > now AND spec_ts < now + %OFF%
	) WHERE cust = '%NAME%' AND country = 'China' GROUP BY spec_ts`
	var out []string
	names := []string{"Alice", "Bob", "Carol"}
	offs := []string{"3", "9", "5", "7"}
	for i := 0; i < 8; i++ {
		q := strings.ReplaceAll(tmpl, "%NAME%", names[i%3])
		q = strings.ReplaceAll(q, "%OFF%", offs[i%4])
		out = append(out, q)
	}
	return out
}

func TestFig5aParameterChanges(t *testing.T) {
	iface := generate(t, allPairs(), listing4Log()...)
	types := widgetTypes(iface)
	if len(types) != 2 {
		t.Fatalf("widgets = %v, want exactly 2 (drop-down + slider)", describe(iface))
	}
	if types[0] != "drop-down" || types[1] != "slider" {
		t.Fatalf("widgets = %v, want [drop-down slider]", types)
	}
	// Interface complexity tracks change complexity, not query
	// complexity: the query has a subquery and multiple predicates, but
	// only two widgets are produced, and the interface expresses the
	// whole log.
	queries, _ := qlog.FromSQL(listing4Log()...).Parse()
	if expr := iface.Expressiveness(queries); expr != 1 {
		t.Fatalf("expressiveness = %v, want 1", expr)
	}
	// Cross-product generalization: cust='Bob' with offset 9 never
	// co-occurs in the log but is expressible (§7.1.1).
	unseen := sqlparser.MustParse(strings.ReplaceAll(strings.ReplaceAll(
		`SELECT spec_ts, sum(price) FROM (
			SELECT action, sum(customer) FROM t
			WHERE spec_ts > now AND spec_ts < now + %OFF%
		) WHERE cust = '%NAME%' AND country = 'China' GROUP BY spec_ts`,
		"%NAME%", "Bob"), "%OFF%", "9"))
	if !iface.CanExpress(unseen) {
		t.Fatal("cross-product combination should be expressible")
	}
	// But changing the country is NOT expressible: that part never
	// changed in the log.
	other := sqlparser.MustParse(strings.ReplaceAll(strings.ReplaceAll(
		`SELECT spec_ts, sum(price) FROM (
			SELECT action, sum(customer) FROM t
			WHERE spec_ts > now AND spec_ts < now + %OFF%
		) WHERE cust = '%NAME%' AND country = 'Japan' GROUP BY spec_ts`,
		"%NAME%", "Alice"), "%OFF%", "3"))
	if iface.CanExpress(other) {
		t.Fatal("unchanged query parts must not be expressible")
	}
}

// --- Figures 5b/5c: Listing 5, adaptivity to log size.
func TestFig5bSmallLogSingleRadio(t *testing.T) {
	iface := generate(t, allPairs(),
		"SELECT avg(a)", "SELECT count(b)", "SELECT count(c)")
	types := widgetTypes(iface)
	if len(types) != 1 || types[0] != "radio-button" {
		t.Fatalf("widgets = %v, want single radio-button over whole queries", describe(iface))
	}
	w := iface.Widgets[0]
	if len(w.Path) != 0 {
		t.Fatalf("radio path = %v, want root", w.Path)
	}
	if w.Domain.Len() != 3 {
		t.Fatalf("radio domain = %d, want the 3 full ASTs", w.Domain.Len())
	}
}

func TestFig5cLargerLogSplitsWidgets(t *testing.T) {
	iface := generate(t, allPairs(),
		"SELECT avg(a)", "SELECT count(b)", "SELECT count(c)",
		"SELECT avg(b)", "SELECT count(a)", "SELECT avg(c)",
		"SELECT avg(d)", "SELECT avg(e)", "SELECT count(d)",
		"SELECT count(e)")
	if len(iface.Widgets) != 2 {
		t.Fatalf("widgets = %v, want 2 (function name + argument)", describe(iface))
	}
	// One widget for the 2-option function name, one for the 5-option
	// argument; their domains multiply to 10 expressible queries.
	sizes := []int{iface.Widgets[0].Domain.Len(), iface.Widgets[1].Domain.Len()}
	sort.Ints(sizes)
	if sizes[0] != 2 || sizes[1] != 5 {
		t.Fatalf("domain sizes = %v, want [2 5]", sizes)
	}
	// Unseen combination avg(b) already in log; count(b) etc. — check a
	// couple of cross products.
	for _, q := range []string{"SELECT count(b)", "SELECT avg(e)", "SELECT count(c)"} {
		if !iface.CanExpress(sqlparser.MustParse(q)) {
			t.Errorf("cross product %q should be expressible", q)
		}
	}
}

// --- Figure 5d: Listing 6, TOP toggle + slider.
func TestFig5dTopToggleAndSlider(t *testing.T) {
	// Figure 5d arises under the paper's default optimized mining
	// (window=2 + LCA pruning): consecutive pairs each change one thing,
	// so the TOP-presence toggle and the TOP-value slider never merge.
	iface := generate(t, DefaultOptions(),
		"SELECT g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848,0.352,2.0616) as d WHERE d.objID = g.objID",
		"SELECT TOP 1 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848,0.352,2.0616) as d WHERE d.objID = g.objID",
		"SELECT TOP 10 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848,0.352,2.0616) as d WHERE d.objID = g.objID")
	types := widgetTypes(iface)
	want := []string{"slider", "toggle-button"}
	if len(types) != 2 || types[0] != want[0] || types[1] != want[1] {
		t.Fatalf("widgets = %v, want toggle + slider (Fig 5d)", describe(iface))
	}
	// TOP 5 was never in the log but the slider extrapolates [1, 10].
	q := sqlparser.MustParse("SELECT TOP 5 g.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(5.848,0.352,2.0616) as d WHERE d.objID = g.objID")
	if !iface.CanExpress(q) {
		t.Fatal("TOP 5 should be expressible via slider extrapolation")
	}
}

// --- Figure 5e: Listing 7, subquery toggle + inner widgets.
func TestFig5eSubqueryToggle(t *testing.T) {
	iface := generate(t, DefaultOptions(),
		"SELECT * FROM T",
		"SELECT * FROM (SELECT a FROM T WHERE b > 10)",
		"SELECT * FROM (SELECT a FROM T WHERE b > 20)",
		"SELECT * FROM (SELECT b FROM T WHERE b > 20)")
	types := widgetTypes(iface)
	// A toggle between table T and the subquery, a widget for the inner
	// projection, and a slider for the inner predicate.
	if len(types) != 3 {
		t.Fatalf("widgets = %v, want 3 (toggle + projection + slider)", describe(iface))
	}
	if !contains(types, "toggle-button") || !contains(types, "slider") {
		t.Fatalf("widgets = %v, want toggle-button and slider present", describe(iface))
	}
	// Cross product: subquery projecting b with threshold 10 was never
	// logged but is expressible.
	q := sqlparser.MustParse("SELECT * FROM (SELECT b FROM T WHERE b > 10)")
	if !iface.CanExpress(q) {
		t.Fatal("subquery cross product should be expressible")
	}
}

// --- Closure and apply mechanics.
func TestApplyWidget(t *testing.T) {
	iface := generate(t, allPairs(),
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2",
		"SELECT a FROM t WHERE x = 9")
	if len(iface.Widgets) != 1 {
		t.Fatalf("widgets = %v", describe(iface))
	}
	w := iface.Widgets[0]
	got := Apply(iface.Initial, w, ast.Leaf(ast.TypeNumExpr, "5"))
	if got == nil {
		t.Fatal("apply failed")
	}
	want := sqlparser.MustParse("SELECT a FROM t WHERE x = 5")
	if !ast.Equal(got, want) {
		t.Fatalf("applied query = %s, want %s", ast.SQL(got), ast.SQL(want))
	}
	if out := Apply(iface.Initial, w, ast.Leaf(ast.TypeNumExpr, "99")); out != nil {
		t.Fatal("value outside the domain must be rejected")
	}
}

func TestEnumerateClosure(t *testing.T) {
	iface := generate(t, allPairs(),
		"SELECT avg(a)", "SELECT count(b)", "SELECT count(c)",
		"SELECT avg(b)", "SELECT count(a)", "SELECT avg(c)",
		"SELECT avg(d)", "SELECT avg(e)", "SELECT count(d)",
		"SELECT count(e)")
	// Two widgets with domains 2 × 5: the closure holds exactly the 10
	// cross-product queries.
	if got := iface.ClosureSize(0); got != 10 {
		t.Fatalf("closure size = %d, want 10", got)
	}
	// And every closure member must self-report as expressible.
	iface.EnumerateClosure(0, func(q *ast.Node) bool {
		if !iface.CanExpress(q) {
			t.Errorf("closure member not expressible: %s", ast.SQL(q))
		}
		return true
	})
}

func TestClosureCap(t *testing.T) {
	iface := generate(t, allPairs(),
		"SELECT avg(a)", "SELECT count(b)", "SELECT count(c)",
		"SELECT avg(b)", "SELECT count(a)", "SELECT avg(c)",
		"SELECT avg(d)", "SELECT avg(e)", "SELECT count(d)",
		"SELECT count(e)")
	n := 0
	iface.EnumerateClosure(3, func(q *ast.Node) bool { n++; return true })
	if n != 3 {
		t.Fatalf("cap ignored: yielded %d", n)
	}
}

// TestTrainingLogAlwaysExpressible pins g=1 (§4.5): with all-pairs
// mining, the generated interface expresses every training query.
func TestTrainingLogAlwaysExpressible(t *testing.T) {
	logs := [][]string{
		listing4Log(),
		{"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
			"SELECT * FROM XCRedshift WHERE specObjId = 0x199",
			"SELECT * FROM SpecLineIndex WHERE specObjId = 0x3"},
		{"SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
			"SELECT DestState FROM ontime WHERE Month = 9 AND Day = 3 GROUP BY DestState",
			"SELECT DestState FROM ontime WHERE Month = 8 AND Day = 3 GROUP BY DestState"},
	}
	for _, sqls := range logs {
		iface := generate(t, allPairs(), sqls...)
		queries, _ := qlog.FromSQL(sqls...).Parse()
		if expr := iface.Expressiveness(queries); expr != 1 {
			t.Errorf("expressiveness = %v for log %q...", expr, sqls[0])
		}
	}
}

// TestWindowAndLCAPreserveInterface is the Appendix B invariant: the
// optimizations change runtime, not the output interface, on
// systematically changing logs.
func TestWindowAndLCAPreserveInterface(t *testing.T) {
	sqls := []string{
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x400",
		"SELECT * FROM XCRedshift WHERE specObjId = 0x199",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x3",
		"SELECT * FROM XCRedshift WHERE specObjId = 0x2a",
		"SELECT * FROM SpecLineIndex WHERE specObjId = 0x77",
	}
	baseline := generate(t, allPairs(), sqls...)
	optimized := generate(t, DefaultOptions(), sqls...)
	queries, _ := qlog.FromSQL(sqls...).Parse()
	for _, q := range queries {
		if baseline.CanExpress(q) != optimized.CanExpress(q) {
			t.Fatalf("optimizations changed expressiveness for %s", ast.SQL(q))
		}
	}
	bt, ot := widgetTypes(baseline), widgetTypes(optimized)
	if strings.Join(bt, ",") != strings.Join(ot, ",") {
		t.Fatalf("optimizations changed widget set: %v vs %v", bt, ot)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(&qlog.Log{}, DefaultOptions()); err == nil {
		t.Fatal("empty log must error")
	}
	if _, err := Generate(qlog.FromSQL("DROP TABLE x"), DefaultOptions()); err == nil {
		t.Fatal("unparsable statement must error")
	}
	log := qlog.FromSQL("SELECT a FROM t", "DROP TABLE x")
	log.Entries[1].Client = "c1"
	if _, err := Generate(log, DefaultOptions()); err == nil || !strings.HasPrefix(err.Error(), `qlog: entry 1 (client "c1"): `) {
		t.Fatalf("error %v does not name the entry and its client", err)
	}
}

func TestSingleQueryLog(t *testing.T) {
	iface := generate(t, DefaultOptions(), "SELECT a FROM t")
	if len(iface.Widgets) != 0 {
		t.Fatalf("single-query log should produce no widgets, got %v", describe(iface))
	}
	if !iface.CanExpress(sqlparser.MustParse("SELECT a FROM t")) {
		t.Fatal("q0 itself must be expressible")
	}
	if iface.CanExpress(sqlparser.MustParse("SELECT b FROM t")) {
		t.Fatal("nothing else should be expressible")
	}
}

func describe(i *Interface) []string {
	var out []string
	for _, w := range i.Widgets {
		out = append(out, w.Type.Name+"@"+w.Path.String())
	}
	return out
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
