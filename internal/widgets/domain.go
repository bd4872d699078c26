// Package widgets implements the interaction-widget model of §4.3: a
// widget type is a constraint rule plus a cost function; a widget
// instance is a path in the AST plus a domain of subtrees it can swap in
// at that path. The library contains the nine HTML widget types used in
// the paper's experiments, with the published cost-function constants as
// defaults and a trace-fitting procedure to re-derive them.
package widgets

import (
	"repro/internal/ast"
)

// Domain is the set of subtrees a widget can express at its path. It is
// initialized from a subset of the diffs table and, for numeric domains
// used by sliders, extrapolates to the full [Min, Max] range (§4.3:
// "its domain will be extrapolated as the range [1, 100]").
type Domain struct {
	set  *ast.Set
	kind ast.Kind

	hasNil bool // contains the "absent" option (added/removed subtree)

	numeric  bool // all non-nil values are numeric terminals
	allColl  bool // all values are collection nodes (checkbox lists)
	numCount int
	min, max float64
}

// NewDomain returns an empty domain.
func NewDomain() *Domain {
	return &Domain{set: ast.NewSet(), kind: ast.KindNumber, numeric: true, allColl: true}
}

// Clone returns an independent copy in O(distinct members): adding to
// either domain afterwards leaves the other unchanged.
func (d *Domain) Clone() *Domain {
	c := *d
	c.set = d.set.Clone()
	return &c
}

// Add inserts a subtree (nil allowed: the absent option). It updates the
// domain's kind: number if all members are numeric terminals, string if
// all are string-castable terminals, tree otherwise.
func (d *Domain) Add(n *ast.Node) {
	if !d.set.Add(n) {
		return
	}
	if n == nil {
		d.hasNil = true
		d.kind = ast.KindTree
		d.numeric = false
		d.allColl = false
		return
	}
	if !ast.IsCollection(n.Type) {
		d.allColl = false
	}
	k := ast.KindOf(n)
	switch k {
	case ast.KindNumber:
		if v, ok := ast.NumValue(n); ok {
			d.numCount++
			if d.numCount == 1 {
				d.min, d.max = v, v
			} else {
				if v < d.min {
					d.min = v
				}
				if v > d.max {
					d.max = v
				}
			}
		} else {
			d.numeric = false
		}
	default:
		d.numeric = false
	}
	// Kind lattice: number ⊂ string ⊂ tree.
	if d.kind == ast.KindNumber && k != ast.KindNumber {
		if k == ast.KindString {
			d.kind = ast.KindString
		} else {
			d.kind = ast.KindTree
		}
	} else if d.kind == ast.KindString && k == ast.KindTree {
		d.kind = ast.KindTree
	}
}

// Kind returns the primitive kind of the whole domain.
func (d *Domain) Kind() ast.Kind { return d.kind }

// Len returns the number of distinct options (|w.d|).
func (d *Domain) Len() int { return d.set.Len() }

// IsNumericRange reports whether the domain consists solely of numeric
// terminals so that a slider may extrapolate it to [Min, Max].
func (d *Domain) IsNumericRange() bool { return d.numeric && !d.hasNil && d.set.Len() > 0 }

// Range returns the extrapolated numeric bounds (valid only when
// IsNumericRange).
func (d *Domain) Range() (min, max float64) { return d.min, d.max }

// HasAbsent reports whether the domain includes the absent option.
func (d *Domain) HasAbsent() bool { return d.hasNil }

// AllCollections reports whether every member is a collection node
// (Project, GroupBy, ...) — the acceptance rule of checkbox lists.
// Tracked incrementally so widget-rule checks do not have to
// materialize (and sort) the domain's values.
func (d *Domain) AllCollections() bool { return d.allColl && !d.hasNil && d.set.Len() > 0 }

// Contains reports whether the domain can express the subtree: exact
// structural membership, or numeric-range membership for extrapolated
// numeric domains.
func (d *Domain) Contains(n *ast.Node) bool {
	if d.set.Contains(n) {
		return true
	}
	if ast.KindOf(n) == ast.KindNumber && d.IsNumericRange() {
		if v, ok := ast.NumValue(n); ok {
			return v >= d.min && v <= d.max
		}
	}
	return false
}

// Values returns the distinct member subtrees in deterministic order.
func (d *Domain) Values() []*ast.Node { return d.set.Values() }
