package widgets

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
)

func numDomain(vals ...string) *Domain {
	d := NewDomain()
	for _, v := range vals {
		d.Add(ast.Leaf(ast.TypeNumExpr, v))
	}
	return d
}

func strDomain(vals ...string) *Domain {
	d := NewDomain()
	for _, v := range vals {
		d.Add(ast.Leaf(ast.TypeStrExpr, v))
	}
	return d
}

func treeDomain(n int) *Domain {
	d := NewDomain()
	for i := 0; i < n; i++ {
		d.Add(ast.NewAttr(ast.TypeBiExpr, "op", "=",
			ast.Leaf(ast.TypeColExpr, "x"),
			ast.Leaf(ast.TypeNumExpr, itoa(i))))
	}
	return d
}

func itoa(v int) string {
	s := ""
	for {
		s = string(rune('0'+v%10)) + s
		v /= 10
		if v == 0 {
			return s
		}
	}
}

func TestDomainKindLattice(t *testing.T) {
	d := NewDomain()
	d.Add(ast.Leaf(ast.TypeNumExpr, "1"))
	if d.Kind() != ast.KindNumber {
		t.Fatalf("pure numeric domain kind = %v", d.Kind())
	}
	d.Add(ast.Leaf(ast.TypeStrExpr, "x"))
	if d.Kind() != ast.KindString {
		t.Fatalf("mixed num/str domain kind = %v", d.Kind())
	}
	d.Add(ast.NewAttr(ast.TypeBiExpr, "op", "="))
	if d.Kind() != ast.KindTree {
		t.Fatalf("domain with tree member kind = %v", d.Kind())
	}
}

func TestDomainNumericExtrapolation(t *testing.T) {
	d := numDomain("1", "5", "100")
	if !d.IsNumericRange() {
		t.Fatal("numeric domain should extrapolate")
	}
	lo, hi := d.Range()
	if lo != 1 || hi != 100 {
		t.Fatalf("range = [%v, %v]", lo, hi)
	}
	// Example 4.3: the slider can express all values between 1 and 100,
	// even though w.D only contained three subtrees.
	if !d.Contains(ast.Leaf(ast.TypeNumExpr, "42")) {
		t.Fatal("42 should be in extrapolated range")
	}
	if d.Contains(ast.Leaf(ast.TypeNumExpr, "101")) {
		t.Fatal("101 is outside the range")
	}
	if d.Contains(ast.Leaf(ast.TypeStrExpr, "42")) {
		t.Fatal("string literal is not in a numeric domain")
	}
}

func TestDomainHexValues(t *testing.T) {
	h1 := ast.Leaf(ast.TypeNumExpr, "0x3")
	h1.SetAttr("fmt", "hex")
	h2 := ast.Leaf(ast.TypeNumExpr, "0x400")
	h2.SetAttr("fmt", "hex")
	d := NewDomain()
	d.Add(h1)
	d.Add(h2)
	if !d.IsNumericRange() {
		t.Fatal("hex ids should form a numeric range (SDSS slider, Fig 6b)")
	}
	lo, hi := d.Range()
	if lo != 3 || hi != 1024 {
		t.Fatalf("hex range = [%v, %v]", lo, hi)
	}
	mid := ast.Leaf(ast.TypeNumExpr, "0x199")
	mid.SetAttr("fmt", "hex")
	if !d.Contains(mid) {
		t.Fatal("0x199 should be inside [0x3, 0x400]")
	}
}

func TestDomainAbsentOption(t *testing.T) {
	d := NewDomain()
	d.Add(nil)
	d.Add(ast.NewAttr(ast.TypeLimit, "kind", "top", ast.Leaf(ast.TypeNumExpr, "1")))
	if d.Len() != 2 || !d.HasAbsent() {
		t.Fatalf("len=%d hasAbsent=%v", d.Len(), d.HasAbsent())
	}
	if d.IsNumericRange() {
		t.Fatal("domain with absent option cannot be a numeric range")
	}
	if !d.Contains(nil) {
		t.Fatal("absent option must be containable")
	}
}

func TestDomainDeduplicates(t *testing.T) {
	d := strDomain("a", "a", "b", "a")
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

// TestDomainCloneIsIndependent: a clone answers like its source, and
// adding to either afterwards leaves the other as it was.
func TestDomainCloneIsIndependent(t *testing.T) {
	d := numDomain("3", "7")
	c := d.Clone()
	d.Add(ast.Leaf(ast.TypeNumExpr, "40"))
	d.Add(nil)
	if lo, hi := c.Range(); c.Len() != 2 || lo != 3 || hi != 7 || c.HasAbsent() || !c.IsNumericRange() {
		t.Fatalf("clone changed with its source: len=%d range=[%g,%g] absent=%v", c.Len(), lo, hi, c.HasAbsent())
	}
	c.Add(ast.Leaf(ast.TypeStrExpr, "x"))
	if d.Len() != 4 || d.Contains(ast.Leaf(ast.TypeStrExpr, "x")) || !c.Contains(ast.Leaf(ast.TypeStrExpr, "x")) {
		t.Fatalf("source changed with its clone: len=%d", d.Len())
	}
	if c.Kind() != ast.KindString || d.Kind() != ast.KindTree {
		t.Fatalf("kinds %v / %v, want str / tree", c.Kind(), d.Kind())
	}
}

// TestPickSelections pins the widget-type selections that the paper's
// figures depend on.
func TestPickSelections(t *testing.T) {
	lib := DefaultLibrary()
	p := ast.Path{0}
	cases := []struct {
		name string
		dom  *Domain
		want string
	}{
		{"2 trees -> toggle (Fig 5d TOP presence)", treeDomain(2), "toggle-button"},
		{"3 whole queries -> radio (Fig 5b)", treeDomain(3), "radio-button"},
		{"10 trees -> drag-and-drop fallback", treeDomain(10), "drag-and-drop"},
		{"2 numbers -> slider (Fig 5e predicate)", numDomain("10", "20"), "slider"},
		{"3 numbers -> slider (Fig 5a)", numDomain("1", "5", "100"), "slider"},
		{"3 strings -> drop-down (Fig 5a customers)", strDomain("Alice", "Bob", "Carol"), "drop-down"},
		{"2 strings -> toggle", strDomain("USA", "EUR"), "toggle-button"},
	}
	for _, c := range cases {
		w := lib.Pick(p, c.dom)
		if w == nil {
			t.Errorf("%s: no widget picked", c.name)
			continue
		}
		if w.Type.Name != c.want {
			t.Errorf("%s: picked %s, want %s", c.name, w.Type.Name, c.want)
		}
	}
}

// TestTextboxCrossover: per Example 4.4, the drop-down is cheaper for
// small string domains but the constant-cost textbox wins for large
// ones ("as the domain increases ... it is easier to simply use the
// textbox").
func TestTextboxCrossover(t *testing.T) {
	lib := DefaultLibrary()
	small := strDomain("a", "b", "c")
	if w := lib.Pick(ast.Path{0}, small); w.Type.Name != "drop-down" {
		t.Fatalf("small string domain picked %s", w.Type.Name)
	}
	big := NewDomain()
	for i := 0; i < 60; i++ {
		big.Add(ast.Leaf(ast.TypeStrExpr, "name"+itoa(i)))
	}
	if w := lib.Pick(ast.Path{0}, big); w.Type.Name != "textbox" {
		t.Fatalf("large string domain picked %s, want textbox", w.Type.Name)
	}
	// The published crossover: c_dropdown(n) > 4790 around n ≈ 33.
	if Dropdown.Cost.Eval(30) > Textbox.Cost.Eval(30) {
		t.Fatal("drop-down should still win at n=30")
	}
	if Dropdown.Cost.Eval(40) < Textbox.Cost.Eval(40) {
		t.Fatal("textbox should win at n=40")
	}
}

// TestPaperCostConstants pins Example 4.4's published constants.
func TestPaperCostConstants(t *testing.T) {
	if Dropdown.Cost.A0 != 276 || Dropdown.Cost.A1 != 125 || Dropdown.Cost.A2 != 0.07 {
		t.Fatalf("drop-down constants changed: %v", Dropdown.Cost)
	}
	if Textbox.Cost.A0 != 4790 || Textbox.Cost.A1 != 0 || Textbox.Cost.A2 != 0 {
		t.Fatalf("textbox constants changed: %v", Textbox.Cost)
	}
	if got := Dropdown.Cost.Eval(10); math.Abs(got-(276+1250+7)) > 1e-9 {
		t.Fatalf("c_dropdown(10) = %v", got)
	}
}

func TestCollectionOnlyRule(t *testing.T) {
	proj := NewDomain()
	proj.Add(ast.New(ast.TypeProject, ast.New(ast.TypeProjClause, ast.Leaf(ast.TypeColExpr, "a"))))
	proj.Add(ast.New(ast.TypeProject, ast.New(ast.TypeProjClause, ast.Leaf(ast.TypeColExpr, "b"))))
	if !CheckboxList.Accepts(proj) {
		t.Fatal("checkbox-list should accept Project-node domains")
	}
	if CheckboxList.Accepts(treeDomain(3)) {
		t.Fatal("checkbox-list must reject non-collection trees")
	}
	// For a 5-option Project domain (radio caps at 4) the checkbox-list
	// should beat the drag-and-drop fallback.
	for _, c := range []string{"c", "d", "e"} {
		proj.Add(ast.New(ast.TypeProject, ast.New(ast.TypeProjClause, ast.Leaf(ast.TypeColExpr, c))))
	}
	w := DefaultLibrary().Pick(ast.Path{0}, proj)
	if w.Type.Name != "checkbox-list" {
		t.Fatalf("picked %s for 5-option collection domain", w.Type.Name)
	}
}

func TestSliderRequiresNumericRange(t *testing.T) {
	if Slider.Accepts(strDomain("a", "b")) {
		t.Fatal("slider must reject string domains")
	}
	mixed := NewDomain()
	mixed.Add(ast.Leaf(ast.TypeNumExpr, "1"))
	mixed.Add(nil)
	if Slider.Accepts(mixed) {
		t.Fatal("slider must reject domains with the absent option")
	}
}

func TestFitCostRecoversPolynomial(t *testing.T) {
	truth := CostFunc{A0: 276, A1: 125, A2: 0.07}
	var traces []TimingTrace
	for _, n := range []int{2, 3, 5, 8, 13, 21, 34} {
		traces = append(traces, TimingTrace{DomainSize: n, Millis: truth.Eval(n)})
	}
	got, err := FitCost(traces)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A0-truth.A0) > 1 || math.Abs(got.A1-truth.A1) > 1 || math.Abs(got.A2-truth.A2) > 0.1 {
		t.Fatalf("fit = %v, truth = %v", got, truth)
	}
}

func TestFitCostOnSynthesizedTraces(t *testing.T) {
	traces := SynthesizeTraces(300, 120, 0.1, []int{2, 4, 8, 16, 32}, 5)
	c, err := FitCost(traces)
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients should be non-negative and in the right ballpark.
	if c.A0 < 0 || c.A1 < 0 || c.A2 < 0 {
		t.Fatalf("negative coefficients: %v", c)
	}
	if c.Eval(10) < c.Eval(2) {
		t.Fatal("fitted cost must be monotone in domain size")
	}
}

func TestFitCostDegenerate(t *testing.T) {
	if _, err := FitCost([]TimingTrace{{2, 100}}); err == nil {
		t.Fatal("too few traces must error")
	}
	// All traces at one size: singular design, constant fallback.
	c, err := FitCost([]TimingTrace{{3, 100}, {3, 110}, {3, 90}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Eval(3)-100) > 1e-6 {
		t.Fatalf("constant fallback = %v", c)
	}
}

// Property: fitted costs are monotone non-decreasing in n for any
// monotone synthetic trace parameters.
func TestFitMonotoneProperty(t *testing.T) {
	f := func(b, s uint8) bool {
		base := 100 + float64(b)
		scan := 1 + float64(s)
		traces := SynthesizeTraces(base, scan, 0.05, []int{2, 4, 8, 16, 32}, 3)
		c, err := FitCost(traces)
		if err != nil {
			return false
		}
		prev := -math.MaxFloat64
		for n := 1; n <= 64; n *= 2 {
			v := c.Eval(n)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestNineWidgetTypes pins the paper's library size: "We defined 9 HTML
// widget types natively supported in modern browsers".
func TestNineWidgetTypes(t *testing.T) {
	lib := DefaultLibrary()
	if len(lib) != 9 {
		t.Fatalf("library has %d types, the paper defines 9", len(lib))
	}
	names := map[string]bool{}
	for _, w := range lib {
		if names[w.Name] {
			t.Fatalf("duplicate widget type %q", w.Name)
		}
		names[w.Name] = true
	}
	for _, want := range []string{
		"textbox", "toggle-button", "checkbox", "radio-button",
		"drop-down", "slider", "range-slider", "checkbox-list",
		"drag-and-drop",
	} {
		if !names[want] {
			t.Errorf("missing widget type %q", want)
		}
	}
}

// TestCostMonotone: every library cost function is monotone
// non-decreasing in the domain size (the paper's requirement).
func TestCostMonotone(t *testing.T) {
	for _, w := range DefaultLibrary() {
		prev := -1.0
		for n := 1; n <= 128; n *= 2 {
			c := w.Cost.Eval(n)
			if c < prev {
				t.Errorf("%s cost not monotone at n=%d", w.Name, n)
			}
			prev = c
		}
	}
}

// TestAllCollectionsMatchesValuesLoop pins the CollectionOnly
// acceptance refactor: the incrementally tracked AllCollections flag
// must agree with the original Values()-materializing loop on every
// domain shape, including domains with the absent option (which
// Values() surfaces as a nil member).
func TestAllCollectionsMatchesValuesLoop(t *testing.T) {
	valuesLoop := func(d *Domain) bool {
		for _, v := range d.Values() {
			if v == nil || !ast.IsCollection(v.Type) {
				return false
			}
		}
		return d.Len() > 0
	}
	coll := func(col string) *ast.Node {
		g := &ast.Node{Type: ast.TypeGroupBy}
		g.Children = append(g.Children, ast.Leaf(ast.TypeColExpr, col))
		return g
	}
	cases := []struct {
		name string
		add  []*ast.Node
	}{
		{"collections only", []*ast.Node{coll("a"), coll("b")}},
		{"collection plus absent", []*ast.Node{coll("a"), nil}},
		{"mixed kinds", []*ast.Node{coll("a"), ast.Leaf(ast.TypeNumExpr, "1")}},
		{"scalar only", []*ast.Node{ast.Leaf(ast.TypeNumExpr, "1")}},
		{"empty", nil},
	}
	for _, c := range cases {
		d := NewDomain()
		for _, n := range c.add {
			d.Add(n)
		}
		if got, want := d.AllCollections(), valuesLoop(d); got != want {
			t.Errorf("%s: AllCollections=%v, values loop=%v", c.name, got, want)
		}
	}
}
