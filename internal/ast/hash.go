package ast

import (
	"slices"
	"strings"
)

// Hash is a 64-bit structural hash of a subtree. Equal subtrees have
// equal hashes; the diff and closure layers use hashes as cheap
// pre-filters and as set keys (falling back to Equal on collision where
// correctness matters).
type Hash uint64

// FNV-1a parameters (the same 64-bit constants as hash/fnv).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// nilHash is the fixed sentinel of a nil subtree (an absent/removed side
// of a diff).
var nilHash = Hash(fnvByte(fnvByte(fnvOffset, 0xff), 0x00))

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (w & 0xff)) * fnvPrime
		w >>= 8
	}
	return h
}

// HashOf returns the structural hash of a subtree. It is compositional:
// FNV-1a over the node type, its attributes in key order, then each
// child's own hash. The result is memoized on the node, so a subtree is
// hashed once however many trees share it; HashOf allocates nothing.
func HashOf(n *Node) Hash {
	if n != nil {
		if h := n.hash.Load(); h != 0 {
			return Hash(h)
		}
	}
	return computeHash(n)
}

// computeHash is HashOf's slow path, kept out of line so the memoized
// lookup inlines into callers.
func computeHash(n *Node) Hash {
	if n == nil {
		return nilHash
	}
	h := fnvByte(fnvOffset, 0x01)
	h = fnvString(h, n.Type)
	h = fnvByte(h, 0x02)
	if len(n.Attrs) > 0 {
		var buf [4]string
		keys := buf[:0]
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			h = fnvString(h, k)
			h = fnvByte(h, 0x03)
			h = fnvString(h, n.Attrs[k])
			h = fnvByte(h, 0x04)
		}
	}
	for _, c := range n.Children {
		h = fnvWord(h, uint64(HashOf(c)))
	}
	h = fnvByte(h, 0x05)
	// A hash that happens to be 0 is simply recomputed on every call.
	n.hash.Store(h)
	return Hash(h)
}

// Set is a set of subtrees keyed by structural hash with collision
// verification, used for widget domains and closure membership.
type Set struct {
	buckets map[Hash][]*Node
	size    int
}

// NewSet returns an empty subtree set.
func NewSet() *Set {
	return &Set{buckets: make(map[Hash][]*Node)}
}

// Add inserts the subtree if not already present and reports whether it
// was inserted. The set stores the node pointer as-is; callers should
// pass trees they will not mutate.
func (s *Set) Add(n *Node) bool {
	h := HashOf(n)
	for _, e := range s.buckets[h] {
		if Equal(e, n) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], n)
	s.size++
	return true
}

// Contains reports set membership by structural equality.
func (s *Set) Contains(n *Node) bool {
	for _, e := range s.buckets[HashOf(n)] {
		if Equal(e, n) {
			return true
		}
	}
	return false
}

// Clone returns a set with the same members in O(distinct members).
// Adding to either set afterwards leaves the other unchanged: the
// clone's buckets are capped at their length, so an append to one side
// never writes into a slot the other can read.
func (s *Set) Clone() *Set {
	c := &Set{buckets: make(map[Hash][]*Node, len(s.buckets)), size: s.size}
	for h, b := range s.buckets {
		c.buckets[h] = b[:len(b):len(b)]
	}
	return c
}

// Len returns the number of distinct subtrees in the set.
func (s *Set) Len() int { return s.size }

// Values returns the distinct subtrees in insertion-independent but
// deterministic order (sorted by rendered string) for stable output.
// Each member is rendered once, not once per comparison.
func (s *Set) Values() []*Node {
	type keyed struct {
		key string
		n   *Node
	}
	ks := make([]keyed, 0, s.size)
	for _, b := range s.buckets {
		for _, n := range b {
			key := ""
			if n != nil {
				key = n.String()
			}
			ks = append(ks, keyed{key, n})
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]*Node, len(ks))
	for i, k := range ks {
		out[i] = k.n
	}
	return out
}
