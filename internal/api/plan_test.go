package api

import (
	"testing"

	"repro/internal/ast"
)

func TestPlanKeyCanonical(t *testing.T) {
	n1, n2 := 1.0, 2.0
	txt := "abc"
	a := []WidgetBinding{{Path: "2/0", Number: &n1}, {Path: "3/1", Text: &txt}}
	b := []WidgetBinding{{Path: "3/1", Text: &txt}, {Path: "2/0", Number: &n1}}
	if PlanKey(a) != PlanKey(b) {
		t.Fatal("binding order changed the plan key")
	}
	c := []WidgetBinding{{Path: "2/0", Number: &n2}, {Path: "3/1", Text: &txt}}
	if PlanKey(a) == PlanKey(c) {
		t.Fatal("different values share a plan key")
	}
	d := []WidgetBinding{{Path: "2/0", Absent: true}}
	e := []WidgetBinding{{Path: "2/0", Text: new(string)}}
	if PlanKey(d) == PlanKey(e) {
		t.Fatal("absent and empty-text bindings share a plan key")
	}
	if PlanKey(nil) != "" {
		t.Fatal("empty binding set should key to the initial query")
	}
	v := ast.Leaf(ast.TypeNumExpr, "7")
	f := []WidgetBinding{{Path: "2/0", Value: v}}
	g := []WidgetBinding{{Path: "2/0", Number: &[]float64{7}[0]}}
	if PlanKey(f) == PlanKey(g) {
		// Not required to collide or differ semantically, but they must
		// not be confused with each other's *form* silently producing a
		// wrong plan — distinct forms get distinct keys.
		t.Fatal("value and number forms share a plan key")
	}
}

// TestPlanKeyInjectionResistant: text controlled by the client must
// not be able to forge another binding set's key (a collision would
// let a request skip Bind validation via someone else's cached plan).
func TestPlanKeyInjectionResistant(t *testing.T) {
	x, y := "x", "y"
	legit := []WidgetBinding{{Path: "p", Text: &x}, {Path: "q", Text: &y}}
	// Reconstruct the legit key's tail inside a single binding's text.
	forged := "x|1:qt1:y"
	attack := []WidgetBinding{{Path: "p", Text: &forged}}
	if PlanKey(legit) == PlanKey(attack) {
		t.Fatalf("forged binding collided with a multi-binding key: %q", PlanKey(legit))
	}
	// Separator bytes inside paths must not merge adjacent fields.
	a := []WidgetBinding{{Path: "p:1", Absent: true}}
	b := []WidgetBinding{{Path: "p", Text: &[]string{"1a"}[0]}}
	if PlanKey(a) == PlanKey(b) {
		t.Fatal("length-prefix framing broken")
	}
}

func TestPlanCacheLRUAndStats(t *testing.T) {
	c := NewPlanCache(2)
	p := func(sql string) *Plan { return &Plan{SQL: sql} }
	c.Put("a", p("A"))
	c.Put("b", p("B"))
	if got, ok := c.GetBytes([]byte("a")); !ok || got.SQL != "A" {
		t.Fatalf("get a = %v %v", got, ok)
	}
	c.Put("c", p("C")) // evicts b (a was just used)
	if _, ok := c.GetBytes([]byte("b")); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.GetBytes([]byte("c")); !ok {
		t.Fatal("c missing")
	}
	st := c.Stats()
	if st.Size != 2 || st.Capacity != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Capacity 0 disables.
	d := NewPlanCache(0)
	d.Put("x", p("X"))
	if _, ok := d.GetBytes([]byte("x")); ok {
		t.Fatal("disabled cache stored a plan")
	}
}

// TestQueryPlanCache: the second identical widget state reports plan
// "hit" — the binding walk is skipped for repeated widget shapes.
func TestQueryPlanCache(t *testing.T) {
	svc, h := newTestService(t)
	w := sliderWidget(t, h.Iface())
	lo, _ := w.Domain.Range()
	req := QueryRequest{Widgets: []WidgetBinding{{Path: w.Path.String(), Number: &lo}}}
	first, err := svc.Query("olap", req)
	if err != nil || first.Plan != "miss" {
		t.Fatalf("first = %+v (%v)", first, err)
	}
	second, err := svc.Query("olap", req)
	if err != nil || second.Plan != "hit" {
		t.Fatalf("second = %+v (%v), want plan hit", second, err)
	}
	if second.SQL != first.SQL {
		t.Fatalf("cached plan rendered different SQL: %q vs %q", second.SQL, first.SQL)
	}
}

// BenchmarkBindCold is the baseline a cold state pays without the plan
// cache: full binding walk, SQL rendering and canonical hashing.
func BenchmarkBindCold(b *testing.B) {
	iface, _ := minedOLAP(b)
	w := sliderWidget(b, iface)
	lo, _ := w.Domain.Range()
	bindings := []WidgetBinding{{Path: w.Path.String(), Number: &lo}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Bind(iface, bindings)
		if err != nil {
			b.Fatal(err)
		}
		_ = ast.SQL(q)
		_ = ast.HashOf(q)
	}
}

// BenchmarkBindPlanCached is the same widget state served through the
// plan cache: one key render plus a locked map lookup.
func BenchmarkBindPlanCached(b *testing.B) {
	iface, _ := minedOLAP(b)
	w := sliderWidget(b, iface)
	lo, _ := w.Domain.Range()
	bindings := []WidgetBinding{{Path: w.Path.String(), Number: &lo}}
	cache := NewPlanCache(DefaultCacheSize)
	q, err := Bind(iface, bindings)
	if err != nil {
		b.Fatal(err)
	}
	cache.Put(PlanKey(bindings), &Plan{Query: q, SQL: ast.SQL(q), Hash: ast.HashOf(q)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.GetBytes([]byte(PlanKey(bindings))); !ok {
			b.Fatal("plan miss")
		}
	}
}
