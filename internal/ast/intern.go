package ast

// Interner hash-conses trees (Filliâtre and Conchon, "Type-Safe Modular
// Hash-Consing", 2006): it keeps one canonical node per structural
// class, so two subtrees interned by the same Interner are Equal exactly
// when they are the same pointer, and Equal answers on its pointer test.
//
// Invariant: a table filled by Intern is filled only by Intern. Every
// member was added after its children were interned, so a member's
// children are members too; that is what makes Intern's shallow match
// (type, attributes, child pointers) exact structural equality. Members
// are never modified, so readers may walk them while Intern runs. An
// Interner itself is not safe for concurrent use.
type Interner struct {
	table map[Hash][]*Node // members by hash; more than one only on a collision
}

// NewInterner returns an empty table.
func NewInterner() *Interner {
	return &Interner{table: make(map[Hash][]*Node)}
}

// Intern returns the canonical node structurally equal to n, adding n's
// subtrees to the table where no equal one is present yet. It works
// bottom-up and may rewrite the child slots of n's tree in place to
// point at canonical children, so the caller must own that tree and not
// have shared it yet (a freshly parsed tree qualifies). A replacement is
// structurally equal to what it replaces and has the same hash, so the
// tree's meaning and its memoized hashes stay valid. A tree that is
// already canonical is only read.
func (in *Interner) Intern(n *Node) *Node {
	if n == nil {
		return nil
	}
	for i, c := range n.Children {
		if ic := in.Intern(c); ic != c {
			n.Children[i] = ic
		}
	}
	h := HashOf(n)
	for _, e := range in.table[h] {
		if sameShallow(e, n) {
			return e
		}
	}
	in.table[h] = append(in.table[h], n)
	return n
}

// sameShallow reports whether a and b have the same type, attributes and
// child pointers: structural equality once both have canonical children.
func sameShallow(a, b *Node) bool {
	if a.Type != b.Type || len(a.Children) != len(b.Children) || !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	for i, c := range a.Children {
		if c != b.Children[i] {
			return false
		}
	}
	return true
}
