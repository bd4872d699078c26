package treediff

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

func TestEditDistanceIdentity(t *testing.T) {
	qs := []string{
		"SELECT a FROM t",
		"SELECT cty, sales FROM T WHERE cty = 'USA'",
		"SELECT * FROM (SELECT a FROM T WHERE b > 10)",
	}
	for _, q := range qs {
		n := sqlparser.MustParse(q)
		if d := EditDistance(n, n.Clone()); d != 0 {
			t.Errorf("d(%q, itself) = %d", q, d)
		}
	}
}

func TestEditDistanceSingleRelabel(t *testing.T) {
	a := sqlparser.MustParse("SELECT a FROM t WHERE x = 1")
	b := sqlparser.MustParse("SELECT a FROM t WHERE x = 2")
	if d := EditDistance(a, b); d != 1 {
		t.Fatalf("single literal change distance = %d, want 1", d)
	}
	c := sqlparser.MustParse("SELECT b FROM u WHERE x = 2")
	if d := EditDistance(a, c); d != 3 {
		t.Fatalf("three relabels distance = %d, want 3", d)
	}
}

func TestEditDistanceInsertDelete(t *testing.T) {
	a := sqlparser.MustParse("SELECT a FROM t")
	b := sqlparser.MustParse("SELECT a, b FROM t")
	// Inserting a ProjClause + ColExpr = 2 nodes.
	if d := EditDistance(a, b); d != 2 {
		t.Fatalf("insert distance = %d, want 2", d)
	}
	if d := EditDistance(b, a); d != 2 {
		t.Fatalf("delete distance = %d, want 2 (symmetry)", d)
	}
}

func TestEditDistanceNil(t *testing.T) {
	n := sqlparser.MustParse("SELECT a FROM t")
	if d := EditDistance(nil, n); d != n.Size() {
		t.Fatalf("d(nil, n) = %d, want %d", d, n.Size())
	}
	if d := EditDistance(n, nil); d != n.Size() {
		t.Fatalf("d(n, nil) = %d, want %d", d, n.Size())
	}
	if d := EditDistance(nil, nil); d != 0 {
		t.Fatalf("d(nil, nil) = %d", d)
	}
}

func TestNormalizedDistanceRange(t *testing.T) {
	a := sqlparser.MustParse("SELECT a FROM t")
	b := sqlparser.MustParse("SELECT COUNT(x), y FROM u WHERE q > 1 GROUP BY y ORDER BY y DESC")
	d := NormalizedDistance(a, b)
	if d <= 0 || d > 1 {
		t.Fatalf("normalized distance = %v, want (0, 1]", d)
	}
	if NormalizedDistance(a, a.Clone()) != 0 {
		t.Fatal("identical trees must have normalized distance 0")
	}
}

// Property: metric axioms on random query trees — identity, symmetry
// and the triangle inequality.
func TestEditDistanceMetricProperties(t *testing.T) {
	gen := func(r *rand.Rand) *ast.Node {
		cols := []string{"a", "b", "c"}
		sql := "SELECT " + cols[r.Intn(3)]
		if r.Intn(2) == 0 {
			sql += ", " + cols[r.Intn(3)]
		}
		sql += " FROM t"
		if r.Intn(2) == 0 {
			sql += " WHERE x = " + string(rune('0'+r.Intn(5)))
		}
		if r.Intn(3) == 0 {
			sql += " GROUP BY " + cols[r.Intn(3)]
		}
		return sqlparser.MustParse(sql)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		dab := EditDistance(a, b)
		dba := EditDistance(b, a)
		if dab != dba {
			t.Fatalf("asymmetric: d(a,b)=%d d(b,a)=%d\na=%s\nb=%s", dab, dba, a, b)
		}
		dac := EditDistance(a, c)
		dbc := EditDistance(b, c)
		if dac > dab+dbc {
			t.Fatalf("triangle violated: d(a,c)=%d > d(a,b)+d(b,c)=%d",
				dac, dab+dbc)
		}
		if ast.Equal(a, b) != (dab == 0) {
			t.Fatalf("identity of indiscernibles violated: equal=%v d=%d",
				ast.Equal(a, b), dab)
		}
	}
}

// Property: the edit distance is bounded above by the size-sum and
// below by the size difference.
func TestEditDistanceBounds(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tables := []string{"t", "u", "v"}
	for i := 0; i < 100; i++ {
		a := sqlparser.MustParse("SELECT a FROM " + tables[r.Intn(3)])
		b := sqlparser.MustParse("SELECT a, b, c FROM " + tables[r.Intn(3)] + " WHERE x = 1")
		d := EditDistance(a, b)
		lo := b.Size() - a.Size()
		if lo < 0 {
			lo = -lo
		}
		if d < lo || d > a.Size()+b.Size() {
			t.Fatalf("distance %d outside [%d, %d]", d, lo, a.Size()+b.Size())
		}
	}
}

// Distances drive clustering: queries from the same analysis must be
// closer to each other than to other analyses' queries.
func TestDistanceSeparatesAnalyses(t *testing.T) {
	lookup1 := sqlparser.MustParse("SELECT * FROM SpecLineIndex WHERE specObjId = 0x400")
	lookup2 := sqlparser.MustParse("SELECT * FROM XCRedshift WHERE specObjId = 0x199")
	olap := sqlparser.MustParse("SELECT COUNT(Delay), DestState FROM ontime WHERE Month = 9 GROUP BY DestState")
	within := NormalizedDistance(lookup1, lookup2)
	across := NormalizedDistance(lookup1, olap)
	if within >= across {
		t.Fatalf("within-analysis distance %v !< cross-analysis %v", within, across)
	}
}

// One pointer occurring twice among siblings, as in a hash-consed tree,
// must not confuse the leftmost-leaf indexing: a tree is at distance 0
// from its deep copy and from itself.
func TestEditDistanceSharedSiblings(t *testing.T) {
	f := ast.New("F", ast.Leaf("L", "a"), ast.Leaf("L", "b"))
	p := ast.New("P", f, f, ast.Leaf("L", "z"))
	if d := EditDistance(p, p.Clone()); d != 0 {
		t.Fatalf("d(P(F, F, z), its clone) = %d, want 0", d)
	}
	if d := EditDistance(p, p); d != 0 {
		t.Fatalf("d(P(F, F, z), itself) = %d, want 0", d)
	}
}

// A tree whose equal subtrees are shared by pointer and its deep Clone
// are the same tree to EditDistance, against any third tree.
func TestEditDistanceSharedEqualsClone(t *testing.T) {
	cols := []string{"a", "b"}
	gen := func(r *rand.Rand) *ast.Node {
		c := func() string { return cols[r.Intn(len(cols))] }
		sql := "SELECT " + c() + ", " + c() + ", COUNT(" + c() + ") FROM t WHERE " + c() + " = " + c()
		if r.Intn(2) == 0 {
			sql += " AND " + c() + " = 1"
		}
		return sqlparser.MustParse(sql + " GROUP BY " + c() + ", " + c())
	}
	r := rand.New(rand.NewSource(3))
	in := ast.NewInterner()
	for i := 0; i < 200; i++ {
		a, b := gen(r), gen(r)
		ca, cb := a.Clone(), b.Clone()
		sa, sb := in.Intern(a), in.Intern(b)
		if got, want := EditDistance(sa, cb), EditDistance(ca, cb); got != want {
			t.Fatalf("d(shared a, b) = %d, d(clone a, b) = %d\na=%s\nb=%s", got, want, ca, cb)
		}
		if got, want := EditDistance(sa, sb), EditDistance(ca, cb); got != want {
			t.Fatalf("d(shared a, shared b) = %d, d(clone a, clone b) = %d\na=%s\nb=%s", got, want, ca, cb)
		}
		if d := EditDistance(sa, ca); d != 0 {
			t.Fatalf("d(shared a, its clone) = %d, want 0\na=%s", d, ca)
		}
	}
}
