// Package ast defines the abstract-syntax-tree model that Precision
// Interfaces operates on (§4.1 of the paper). Each node consists of a
// type, a set of attribute-value pairs, and an ordered list of children.
//
// The package also carries the "minimal grammar annotations" the paper
// assumes: a mapping from terminal node types to primitive kinds
// (string/number) and the set of node types that represent collections
// of sub-expressions.
package ast

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Node is a single AST node: a type, attribute-value pairs, and an
// ordered list of children. Nodes are treated as immutable once built;
// all transformations copy (see ReplaceAt and Clone).
//
// A node must not be mutated once it has been hashed or shared: HashOf
// memoizes each subtree's hash on the node, and trees share untouched
// subtrees by pointer, so an in-place edit leaves a stale hash behind
// (and edits every tree that shares the node). Build a tree completely
// before handing it out; to edit one, Clone it (the copy carries no
// cached hash) or use ReplaceAt, InsertAt or DeleteAt.
//
// Trees mined by one core.Miner share every equal subtree (see
// Interner), so pointer equality means structural equality within a
// miner.
type Node struct {
	Type     string
	Attrs    map[string]string
	Children []*Node

	// hash memoizes HashOf (0 = not computed yet). It is written once,
	// atomically, so concurrent readers of a shared tree stay race-free.
	hash atomic.Uint64
}

// New returns a node of the given type with the given children.
func New(typ string, children ...*Node) *Node {
	return &Node{Type: typ, Children: children}
}

// NewAttr returns a node with a single attribute set.
func NewAttr(typ, key, val string, children ...*Node) *Node {
	return &Node{Type: typ, Attrs: map[string]string{key: val}, Children: children}
}

// Leaf returns a terminal node carrying a "value" attribute, the common
// shape for literals and identifiers (StrExpr, NumExpr, ColExpr, ...).
func Leaf(typ, value string) *Node {
	return NewAttr(typ, "value", value)
}

// Value returns the node's "value" attribute ("" when absent).
func (n *Node) Value() string {
	if n == nil || n.Attrs == nil {
		return ""
	}
	return n.Attrs["value"]
}

// NumValue parses a NumExpr's text: decimal (strconv.ParseFloat, so the
// whole text must be a number) or 0x-prefixed hex; a fmt=hex literal
// still needs the prefix. The executors and the widget domains read
// numbers through it alike, so a value a domain accepts also runs.
func NumValue(n *Node) (float64, bool) {
	v := n.Value()
	if n.Attr("fmt") == "hex" || strings.HasPrefix(v, "0x") || strings.HasPrefix(v, "0X") {
		if len(v) < 2 || v[0] != '0' || (v[1] != 'x' && v[1] != 'X') {
			return 0, false
		}
		u, err := strconv.ParseUint(v[2:], 16, 64)
		return float64(u), err == nil
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// Attr returns the named attribute ("" when absent).
func (n *Node) Attr(key string) string {
	if n == nil || n.Attrs == nil {
		return ""
	}
	return n.Attrs[key]
}

// SetAttr returns n after setting an attribute, allocating the map lazily.
// It is intended for use while constructing a tree, before it is shared.
func (n *Node) SetAttr(key, val string) *Node {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string, 1)
	}
	n.Attrs[key] = val
	return n
}

// NumChildren returns the number of children (0 for nil).
func (n *Node) NumChildren() int {
	if n == nil {
		return 0
	}
	return len(n.Children)
}

// Child returns the i-th child or nil when out of range.
func (n *Node) Child(i int) *Node {
	if n == nil || i < 0 || i >= len(n.Children) {
		return nil
	}
	return n.Children[i]
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Type: n.Type}
	if len(n.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			c.Attrs[k] = v
		}
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports deep structural equality of two subtrees, including
// attributes. Two nil nodes are equal. Identical pointers are equal
// without a walk, and two nodes whose memoized hashes (see HashOf) are
// both present and differ are unequal without one; otherwise, including
// on a hash match, the trees are compared node by node. Equal never
// computes a hash itself.
func Equal(a, b *Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if ha, hb := a.hash.Load(), b.hash.Load(); ha != 0 && hb != 0 && ha != hb {
		return false
	}
	if a.Type != b.Type || len(a.Children) != len(b.Children) || !attrsEqual(a.Attrs, b.Attrs) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// LabelEqual reports whether two nodes have the same label, i.e. the
// same type and the same attribute set, ignoring children. The ordered
// tree matcher maps node pairs with equal labels.
func LabelEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Type == b.Type && attrsEqual(a.Attrs, b.Attrs)
}

// attrsEqual reports whether two attribute maps hold the same keys with
// the same values.
func attrsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 1 {
		// The common leaf shape (see Leaf): compare without starting a
		// map iteration.
		if v, ok := a["value"]; ok {
			w, ok := b["value"]
			return ok && v == w
		}
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Walk visits the subtree in pre-order, calling fn with each node and
// its path from n. Returning false from fn prunes the node's subtree.
func (n *Node) Walk(fn func(node *Node, path Path) bool) {
	var rec func(nd *Node, p Path)
	rec = func(nd *Node, p Path) {
		if nd == nil || !fn(nd, p) {
			return
		}
		for i, c := range nd.Children {
			cp := make(Path, len(p)+1)
			copy(cp, p)
			cp[len(p)] = i
			rec(c, cp)
		}
	}
	rec(n, Path{})
}

// At returns the node reached by following path from n, or nil when the
// path does not exist.
func (n *Node) At(p Path) *Node {
	cur := n
	for _, i := range p {
		cur = cur.Child(i)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// ReplaceAt returns a copy of the tree rooted at n with the subtree at
// path p replaced by sub (which may be nil, representing removal of an
// optional clause body when the grammar allows it). The original tree is
// not modified. It returns nil if the path is invalid.
func (n *Node) ReplaceAt(p Path, sub *Node) *Node {
	if len(p) == 0 {
		return sub.Clone()
	}
	if n == nil {
		return nil
	}
	idx := p[0]
	if idx < 0 || idx >= len(n.Children) {
		return nil
	}
	c := n.shallowCopy()
	c.Children = make([]*Node, len(n.Children))
	copy(c.Children, n.Children)
	rep := n.Children[idx].ReplaceAt(p[1:], sub)
	if rep == nil && len(p) > 1 {
		return nil
	}
	c.Children[idx] = rep
	// Dropping a child entirely (rep == nil at the final hop) is modeled
	// by an empty clause node, never a nil pointer, so normalize.
	if c.Children[idx] == nil {
		c.Children[idx] = &Node{Type: n.Children[idx].Type}
	}
	return c
}

// InsertAt returns a copy of the tree with sub inserted as a new child
// of the node at p[:len(p)-1], at child index p[len(p)-1] (which may be
// one past the current last child). Returns nil if the path is invalid.
func (n *Node) InsertAt(p Path, sub *Node) *Node {
	if len(p) == 0 || n == nil {
		return nil
	}
	c := n.shallowCopy()
	idx := p[0]
	if len(p) == 1 {
		if idx < 0 || idx > len(n.Children) {
			return nil
		}
		c.Children = make([]*Node, 0, len(n.Children)+1)
		c.Children = append(c.Children, n.Children[:idx]...)
		c.Children = append(c.Children, sub.Clone())
		c.Children = append(c.Children, n.Children[idx:]...)
		return c
	}
	if idx < 0 || idx >= len(n.Children) {
		return nil
	}
	child := n.Children[idx].InsertAt(p[1:], sub)
	if child == nil {
		return nil
	}
	c.Children = make([]*Node, len(n.Children))
	copy(c.Children, n.Children)
	c.Children[idx] = child
	return c
}

// DeleteAt returns a copy of the tree with the child at path p removed
// from its parent's child list. Returns nil if the path is invalid.
func (n *Node) DeleteAt(p Path) *Node {
	if len(p) == 0 || n == nil {
		return nil
	}
	idx := p[0]
	if idx < 0 || idx >= len(n.Children) {
		return nil
	}
	c := n.shallowCopy()
	if len(p) == 1 {
		c.Children = make([]*Node, 0, len(n.Children)-1)
		c.Children = append(c.Children, n.Children[:idx]...)
		c.Children = append(c.Children, n.Children[idx+1:]...)
		return c
	}
	child := n.Children[idx].DeleteAt(p[1:])
	if child == nil {
		return nil
	}
	c.Children = make([]*Node, len(n.Children))
	copy(c.Children, n.Children)
	c.Children[idx] = child
	return c
}

// shallowCopy copies the node header (type and attrs) without children.
func (n *Node) shallowCopy() *Node {
	c := &Node{Type: n.Type}
	if len(n.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			c.Attrs[k] = v
		}
	}
	return c
}

// attrString renders attributes deterministically (sorted by key).
func (n *Node) attrString() string {
	if len(n.Attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(n.Attrs[k])
	}
	return b.String()
}

// String renders the subtree in a compact s-expression form useful in
// tests and error messages, e.g. (BiExpr{op:=} (ColExpr{value:cty}) (StrExpr{value:USA})).
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	var b strings.Builder
	n.writeString(&b)
	return b.String()
}

func (n *Node) writeString(b *strings.Builder) {
	b.WriteByte('(')
	b.WriteString(n.Type)
	if a := n.attrString(); a != "" {
		b.WriteByte('{')
		b.WriteString(a)
		b.WriteByte('}')
	}
	for _, c := range n.Children {
		b.WriteByte(' ')
		if c == nil {
			b.WriteString("<nil>")
			continue
		}
		c.writeString(b)
	}
	b.WriteByte(')')
}
