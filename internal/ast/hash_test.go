package ast

import (
	"math/rand"
	"sync"
	"testing"
)

// refEqual is deep structural equality that never looks at a memoized
// hash: the reference Equal must agree with.
func refEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Type != b.Type || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for k, v := range a.Attrs {
		if w, ok := b.Attrs[k]; !ok || w != v {
			return false
		}
	}
	for i := range a.Children {
		if !refEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// richTree builds a random tree over a few types and attribute shapes,
// small enough that distinct draws are often equal. Attribute values
// include "" so a missing key and an empty value must be told apart.
func richTree(r *rand.Rand, depth int) *Node {
	types := []string{TypeProject, TypeBiExpr, TypeColExpr, TypeNumExpr}
	n := &Node{Type: types[r.Intn(len(types))]}
	keys := []string{"value", "op", "alias"}
	vals := []string{"", "1", "2"}
	for i := r.Intn(3); i > 0; i-- {
		n.SetAttr(keys[r.Intn(len(keys))], vals[r.Intn(len(vals))])
	}
	if depth > 0 {
		for i := r.Intn(3); i > 0; i-- {
			n.Children = append(n.Children, richTree(r, depth-1))
		}
	}
	return n
}

// edit applies one random ReplaceAt, InsertAt or DeleteAt to n, or
// returns nil when the drawn edit does not apply.
func edit(r *rand.Rand, n *Node) *Node {
	p := randomPath(r, n)
	sub := richTree(r, 2)
	if r.Intn(2) == 0 {
		HashOf(sub) // a pre-hashed subtree enters the tree
	}
	switch r.Intn(3) {
	case 0:
		return n.ReplaceAt(p, sub)
	case 1:
		return n.InsertAt(p.Child(r.Intn(n.At(p).NumChildren()+1)), sub)
	default:
		if len(p) == 0 {
			return nil
		}
		return n.DeleteAt(p)
	}
}

// TestHashMemoSurvivesEdits: a hashed tree edited through the copying
// mutators hashes like a fresh, never-hashed copy of the result (no
// stale hash is inherited through a shared subtree), and the hash-first
// Equal agrees with refEqual in every hashed/unhashed combination.
func TestHashMemoSurvivesEdits(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 500; trial++ {
		orig := richTree(r, 4)
		HashOf(orig)
		cur := orig
		for step := 0; step < 1+r.Intn(4); step++ {
			next := edit(r, cur)
			if next == nil {
				continue
			}
			if r.Intn(2) == 0 {
				HashOf(cur) // hash some intermediate versions too
			}
			cur = next
		}
		fresh := cur.Clone()
		if got, want := HashOf(cur), HashOf(fresh); got != want {
			t.Fatalf("trial %d: edited tree hashes %x, its clone %x:\n%s", trial, got, want, cur)
		}
		other := richTree(r, 4)
		for _, pair := range [][2]*Node{{cur, orig}, {cur, fresh}, {orig, cur.Clone()}, {cur, other}, {other.Clone(), cur}} {
			a, b := pair[0], pair[1]
			if got, want := Equal(a, b), refEqual(a, b); got != want {
				t.Fatalf("trial %d: Equal = %v, reference %v:\n%s\n%s", trial, got, want, a, b)
			}
			HashOf(a)
			HashOf(b)
			if got, want := Equal(a, b), refEqual(a, b); got != want {
				t.Fatalf("trial %d, both hashed: Equal = %v, reference %v:\n%s\n%s", trial, got, want, a, b)
			}
		}
	}
}

// TestEqualMissingKeyIsNotEmptyValue: {a:""} and {b:""} differ, whether
// or not their hashes are memoized.
func TestEqualMissingKeyIsNotEmptyValue(t *testing.T) {
	a, b := NewAttr(TypeColExpr, "a", ""), NewAttr(TypeColExpr, "b", "")
	if Equal(a, b) || LabelEqual(a, b) {
		t.Fatal("a missing key compared equal to an empty value")
	}
	if HashOf(a) == HashOf(b) || Equal(a, b) {
		t.Fatal("hashed: a missing key compared equal to an empty value")
	}
}

// TestHashOfAllocatesNothing hashes never-hashed trees (so the full
// compositional walk runs, not just the memo lookup).
func TestHashOfAllocatesNothing(t *testing.T) {
	const runs = 50
	base := sampleTree()
	base.Children[0].Children[0].Children[0].SetAttr("table", "T").SetAttr("alias", "c").SetAttr("fmt", "x")
	trees := make([]*Node, runs+1)
	for i := range trees {
		trees[i] = base.Clone()
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		HashOf(trees[next])
		next++
	}); n != 0 {
		t.Fatalf("HashOf allocates %.1f per call, want 0", n)
	}
}

// TestConcurrentHashAndEqual shares one never-hashed tree between
// goroutines that hash it and compare it at once; run under -race it
// checks the memo's atomic publication.
func TestConcurrentHashAndEqual(t *testing.T) {
	shared := sampleTree()
	want := HashOf(sampleTree())
	other := sampleTree().ReplaceAt(Path{SlotWhere, 0, 1}, Leaf(TypeStrExpr, "EUR"))
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 && HashOf(shared) != want {
					errs <- "HashOf disagrees with a private copy"
					return
				}
				if !Equal(shared, sampleTree()) || Equal(shared, other) || Equal(other, shared) {
					errs <- "Equal disagrees with the structure"
					return
				}
				if g%3 == 0 {
					HashOf(other)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
