package ast

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParsePath(t *testing.T) {
	cases := []struct {
		in   string
		want Path
		err  bool
	}{
		{"", Path{}, false},
		{"/", Path{}, false},
		{"0/1/0", Path{0, 1, 0}, false},
		{"2/0/0/1", Path{2, 0, 0, 1}, false},
		{"0/1/", Path{0, 1}, false},
		{"a/b", nil, true},
		{"0/-1", nil, true},
	}
	for _, c := range cases {
		got, err := ParsePath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParsePath(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePath(%q): %v", c.in, err)
			continue
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("ParsePath(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPathStringRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		p := make(Path, len(raw))
		for i, v := range raw {
			p[i] = int(v)
		}
		back, err := ParsePath(p.String())
		return err == nil && slices.Equal(back, p)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPathPrefix(t *testing.T) {
	p := Path{0, 1}
	q := Path{0, 1, 0}
	if !p.IsPrefixOf(q) || !p.IsStrictPrefixOf(q) {
		t.Fatal("0/1 should be a strict prefix of 0/1/0")
	}
	if !p.IsPrefixOf(p) {
		t.Fatal("a path is a prefix of itself")
	}
	if p.IsStrictPrefixOf(p) {
		t.Fatal("a path is not a strict prefix of itself")
	}
	if q.IsPrefixOf(p) {
		t.Fatal("longer path cannot prefix shorter")
	}
	if (Path{0, 2}).IsPrefixOf(q) {
		t.Fatal("diverging path is not a prefix")
	}
}

func TestPathChildParent(t *testing.T) {
	p := Path{0, 1}
	c := p.Child(3)
	if !slices.Equal(c, Path{0, 1, 3}) {
		t.Fatalf("Child = %v", c)
	}
	if !slices.Equal(c.Parent(), p) {
		t.Fatalf("Parent = %v", c.Parent())
	}
	root := Path{}
	if !slices.Equal(root.Parent(), root) {
		t.Fatal("root parent should be root")
	}
}

func TestPathCompare(t *testing.T) {
	cases := []struct {
		a, b Path
		want int
	}{
		{Path{}, Path{}, 0},
		{Path{}, Path{0}, -1},
		{Path{0}, Path{}, 1},
		{Path{0, 1}, Path{0, 2}, -1},
		{Path{1}, Path{0, 9}, 1},
		{Path{0, 1}, Path{0, 1}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHashEqualityContract(t *testing.T) {
	a := sampleTree()
	b := sampleTree()
	if HashOf(a) != HashOf(b) {
		t.Fatal("equal trees must hash equal")
	}
	c := a.Clone()
	c.Children[SlotWhere].Children[0].Children[1].Attrs["value"] = "EUR"
	if HashOf(a) == HashOf(c) {
		t.Fatal("distinct literals produced identical hashes (bad mixing)")
	}
	if HashOf(nil) == HashOf(a) {
		t.Fatal("nil hash collides with real tree")
	}
}

func TestSetSemantics(t *testing.T) {
	s := NewSet()
	if !s.Add(Leaf(TypeStrExpr, "USA")) {
		t.Fatal("first add should insert")
	}
	if s.Add(Leaf(TypeStrExpr, "USA")) {
		t.Fatal("duplicate add should not insert")
	}
	s.Add(Leaf(TypeStrExpr, "EUR"))
	s.Add(nil) // absent-subtree sentinel is a legal domain member
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(Leaf(TypeStrExpr, "EUR")) || s.Contains(Leaf(TypeStrExpr, "JPN")) {
		t.Fatal("Contains is wrong")
	}
	if !s.Contains(nil) {
		t.Fatal("set should contain nil sentinel after adding it")
	}
	vals := s.Values()
	if len(vals) != 3 {
		t.Fatalf("Values returned %d items", len(vals))
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		n    *Node
		want Kind
	}{
		{Leaf(TypeStrExpr, "x"), KindString},
		{Leaf(TypeColExpr, "sales"), KindString},
		{Leaf(TypeTabExpr, "T"), KindString},
		{Leaf(TypeNumExpr, "42"), KindNumber},
		{NewAttr(TypeBiExpr, "op", "="), KindTree},
		{nil, KindTree},
	}
	for _, c := range cases {
		if got := KindOf(c.n); got != c.want {
			t.Errorf("KindOf(%s) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestKindCasts(t *testing.T) {
	// Numbers cast to strings; everything casts to trees; strings do not
	// cast to numbers (§4.3).
	if !KindNumber.CastableTo(KindString) || !KindNumber.CastableTo(KindTree) {
		t.Fatal("number casts to string and tree")
	}
	if KindString.CastableTo(KindNumber) {
		t.Fatal("string must not cast to number")
	}
	if !KindTree.CastableTo(KindTree) || KindTree.CastableTo(KindString) {
		t.Fatal("tree casts only to tree")
	}
}

func TestNewSelectShape(t *testing.T) {
	s := NewSelect()
	if len(s.Children) != NumSlots {
		t.Fatalf("NewSelect has %d children, want %d", len(s.Children), NumSlots)
	}
	for i, c := range s.Children {
		if !IsEmptyClause(c) {
			t.Fatalf("slot %d not empty: %s", i, c)
		}
	}
}
