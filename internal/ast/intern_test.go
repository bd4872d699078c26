package ast

import (
	"math/rand"
	"testing"
)

// TestInternSharesEqualSubtrees: equal subtrees of two trees, and of one
// tree, come back as one pointer, and the trees keep their structure.
func TestInternSharesEqualSubtrees(t *testing.T) {
	in := NewInterner()
	a, b := sampleTree(), sampleTree().ReplaceAt(Path{SlotWhere, 0, 1}, Leaf(TypeStrExpr, "EUR"))
	wantA, wantB := a.Clone(), b.Clone()
	ia, ib := in.Intern(a), in.Intern(b)
	if !refEqual(ia, wantA) || !refEqual(ib, wantB) {
		t.Fatalf("interning changed a tree:\n%s\n%s", ia, ib)
	}
	if ia.Child(SlotProject) != ib.Child(SlotProject) || ia.Child(SlotFrom) != ib.Child(SlotFrom) {
		t.Fatal("equal clauses of two interned trees are different pointers")
	}
	if ia.At(Path{SlotWhere, 0, 1}) == ib.At(Path{SlotWhere, 0, 1}) {
		t.Fatal("different literals interned to one pointer")
	}
	if in.Intern(sampleTree()) != ia {
		t.Fatal("a fresh copy of an interned tree did not intern to its pointer")
	}
	twice := New(TypeProject, Leaf(TypeColExpr, "x"), Leaf(TypeColExpr, "x"))
	if it := in.Intern(twice); it.Children[0] != it.Children[1] {
		t.Fatal("equal siblings are different pointers")
	}
}

// TestInternHashCollision: a member whose hash collides with a
// structurally different one is told apart and kept as a class of its
// own. The collision is staged by filing a foreign member under the
// probe's hash.
func TestInternHashCollision(t *testing.T) {
	in := NewInterner()
	x, y := Leaf(TypeColExpr, "x"), Leaf(TypeNumExpr, "1")
	in.table[HashOf(x)] = []*Node{y}
	if got := in.Intern(x); got != x {
		t.Fatalf("Intern returned %s for %s under a colliding hash", got, x)
	}
	if got := in.Intern(x.Clone()); got != x {
		t.Fatal("a copy of a colliding member did not intern to it")
	}
	if got := in.Intern(New(TypeProject, x.Clone())); got.Children[0] != x {
		t.Fatal("a colliding member was not shared as a child")
	}
}

// TestInternAlreadyCanonicalIsReadOnly: interning a tree whose nodes are
// all members writes nothing, so readers of the table may walk it while
// the owner interns more trees.
func TestInternAlreadyCanonicalIsReadOnly(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	in := NewInterner()
	for i := 0; i < 200; i++ {
		n := in.Intern(richTree(r, 4))
		snapshot := make(map[*Node][]*Node)
		n.Walk(func(nd *Node, _ Path) bool {
			snapshot[nd] = append([]*Node(nil), nd.Children...)
			return true
		})
		if in.Intern(n) != n {
			t.Fatalf("re-interning a member returned another node:\n%s", n)
		}
		for nd, cs := range snapshot {
			for j, c := range cs {
				if nd.Children[j] != c {
					t.Fatalf("re-interning rewrote a child of a member:\n%s", nd)
				}
			}
		}
	}
}

// decodeTree reads one tree of at most depth+1 levels from data. Each
// node takes one byte: bit 0 picks its type (of two), the next two its
// value attribute (none, "0" or "1"), the next two, above depth 0, its
// child count (0–2); a byte ≥ 0xf0 is a nil subtree. The alphabet is
// tiny so that equal subtrees are common. It returns the tree and the
// unread bytes.
func decodeTree(data []byte, depth int) (*Node, []byte) {
	if len(data) == 0 {
		return Leaf("L", "0"), nil
	}
	b := data[0]
	data = data[1:]
	if b >= 0xf0 {
		return nil, data
	}
	n := &Node{Type: [2]string{"A", "B"}[b&1]}
	if v := (b >> 1) & 3; v == 1 || v == 2 {
		n.SetAttr("value", string(rune('0'+v-1)))
	}
	if depth > 0 {
		for k := (b >> 3) & 3; k > 0 && k < 3; k-- {
			var c *Node
			c, data = decodeTree(data, depth-1)
			n.Children = append(n.Children, c)
		}
	}
	return n, data
}

// FuzzIntern checks Intern against its definition on two decoded trees:
// the canonical tree is structurally the input and hashes like it,
// interning is idempotent (the member itself and any fresh copy return
// the same pointer), and across both trees two subtrees are one pointer
// exactly when they are structurally equal.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x02, 0x02, 0x10, 0x02, 0x02})
	f.Add([]byte{0x08, 0x11, 0x02, 0x04, 0x09, 0x11, 0x02, 0x04})
	f.Add([]byte{0x10, 0x10, 0x02, 0xf0, 0x10, 0x02, 0xf0, 0x11, 0x10, 0x02, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := decodeTree(data, 3)
		b, _ := decodeTree(rest, 3)
		ca, cb := a.Clone(), b.Clone()
		in := NewInterner()
		ia, ib := in.Intern(a), in.Intern(b)
		for _, c := range [][2]*Node{{ia, ca}, {ib, cb}} {
			got, want := c[0], c[1]
			if !Equal(got, want.Clone()) || !refEqual(got, want) || HashOf(got) != HashOf(want.Clone()) {
				t.Fatalf("interned tree differs from its input:\n%s\n%s", got, want)
			}
			if in.Intern(got) != got || in.Intern(want.Clone()) != got {
				t.Fatalf("interning is not idempotent on %s", want)
			}
		}
		if refEqual(ca, cb) != (ia == ib) {
			t.Fatalf("Equal = %v but pointers equal = %v:\n%s\n%s", refEqual(ca, cb), ia == ib, ca, cb)
		}
		var subs []*Node
		for _, n := range []*Node{ia, ib} {
			n.Walk(func(nd *Node, _ Path) bool {
				subs = append(subs, nd)
				return true
			})
		}
		for i, x := range subs {
			for _, y := range subs[i+1:] {
				if (x == y) != refEqual(x, y) {
					t.Fatalf("subtrees: pointers equal = %v, structurally equal = %v:\n%s\n%s", x == y, refEqual(x, y), x, y)
				}
			}
		}
	})
}
