package ast

import (
	"strconv"
	"strings"
)

// Path identifies a node by the sequence of child indices followed from
// the root, rendered as "0/1/0" like the paper's Table 1. The empty path
// names the root.
type Path []int

// String renders the path as "0/1/0"; the root renders as "/".
func (p Path) String() string {
	if len(p) == 0 {
		return "/"
	}
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, "/")
}

// IsPrefixOf reports whether p is a (possibly equal) prefix of q, i.e.
// whether the node at p is an ancestor-or-self of the node at q.
func (p Path) IsPrefixOf(q Path) bool {
	if len(p) > len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsStrictPrefixOf reports whether p is a proper prefix of q.
func (p Path) IsStrictPrefixOf(q Path) bool {
	return len(p) < len(q) && p.IsPrefixOf(q)
}

// Child returns the path extended by one child index.
func (p Path) Child(i int) Path {
	c := make(Path, len(p)+1)
	copy(c, p)
	c[len(p)] = i
	return c
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	c := make(Path, len(p))
	copy(c, p)
	return c
}

// Compare orders paths first by pre-order position (lexicographic on
// segments) and then by length, giving a stable total order for
// deterministic output.
func (p Path) Compare(q Path) int {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if p[i] != q[i] {
			if p[i] < q[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	}
	return 0
}
