// Package speculate implements the §4.5 discussion: "One solution is to
// speculatively parse and execute queries in the interface's closure,
// and visually disallow interactions that lead to these ASTs. If the
// space of queries is small, this can be a way to both verify and
// pre-compute results for performance purposes."
//
// Two facilities:
//
//   - Dependencies: detect multi-level widget relationships — a widget
//     whose path only exists under some options of an ancestor widget
//     (Figure 5d: "the slider is only active when the TOP clause is
//     enabled");
//   - Verify: walk the closure, validate each query against a schema
//     catalog, and report which single-widget options and which
//     pairwise option combinations always produce invalid queries, so
//     the interface can disable them.
//
// Pre-computing results is not implemented.
package speculate

import (
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/schema"
)

// Dependency records that a widget is only meaningful while an ancestor
// widget is in one of the supporting states.
type Dependency struct {
	// Widget is the dependent widget's index in the interface.
	Widget int
	// On is the controlling ancestor widget's index.
	On int
	// ActiveOptions are the indices (into the ancestor's Domain.Values)
	// whose subtrees contain the dependent widget's path; with the
	// ancestor in any other state the dependent widget has nothing to
	// modify and should be disabled.
	ActiveOptions []int
}

// Dependencies detects ancestor/descendant widget relationships in an
// interface. A dependency is reported when the ancestor has at least
// one option that does NOT contain the descendant's relative path
// (otherwise the descendant is always active and no dependency exists).
func Dependencies(iface *core.Interface) []Dependency {
	var out []Dependency
	for bi, wb := range iface.Widgets {
		for ai, wa := range iface.Widgets {
			if ai == bi || !wa.Path.IsStrictPrefixOf(wb.Path) {
				continue
			}
			rel := wb.Path[len(wa.Path):]
			var active []int
			missing := false
			for oi, v := range wa.Domain.Values() {
				if v != nil && v.At(rel) != nil {
					active = append(active, oi)
				} else {
					missing = true
				}
			}
			if missing && len(active) > 0 {
				out = append(out, Dependency{Widget: bi, On: ai, ActiveOptions: active})
			}
		}
	}
	return out
}

// OptionRef names one option of one widget.
type OptionRef struct {
	Widget, Option int
}

// Report is the result of speculative closure verification.
type Report struct {
	// Checked and Valid count the examined closure queries.
	Checked, Valid int
	// BadOptions are single options that are invalid even applied alone
	// to the initial query.
	BadOptions []OptionRef
	// Conflicts are option pairs (from different widgets) that produce
	// schema-invalid queries when combined, although each option is
	// individually fine. The generated page disables the second option
	// while the first is selected.
	Conflicts [][2]OptionRef
}

// Verify speculatively checks the interface's closure against a schema
// catalog. Single options are checked exhaustively; pairs are checked
// exhaustively up to maxPairs combinations (0 = unlimited).
func Verify(iface *core.Interface, catalog *schema.Catalog, maxPairs int) Report {
	var rep Report
	valid := func(q *ast.Node) bool {
		rep.Checked++
		ok := q != nil && catalog.Valid(q)
		if ok {
			rep.Valid++
		}
		return ok
	}

	// Single-option pass.
	type applied struct {
		ref OptionRef
		q   *ast.Node
	}
	var singles []applied
	badSingle := map[OptionRef]bool{}
	for wi, w := range iface.Widgets {
		for oi, v := range w.Domain.Values() {
			q := core.Apply(iface.Initial, w, v)
			ref := OptionRef{wi, oi}
			if q == nil || !valid(q) {
				rep.BadOptions = append(rep.BadOptions, ref)
				badSingle[ref] = true
				continue
			}
			singles = append(singles, applied{ref, q})
		}
	}

	// Pairwise pass over individually-valid options of distinct widgets.
	pairs := 0
	for i := 0; i < len(singles); i++ {
		for j := i + 1; j < len(singles); j++ {
			a, b := singles[i], singles[j]
			if a.ref.Widget == b.ref.Widget {
				continue
			}
			if maxPairs > 0 && pairs >= maxPairs {
				return rep
			}
			pairs++
			wb := iface.Widgets[b.ref.Widget]
			vb := wb.Domain.Values()[b.ref.Option]
			q := core.Apply(a.q, wb, vb)
			if q == nil {
				// The combination is structurally impossible (e.g. the
				// second path vanished); not a schema conflict.
				rep.Checked++
				continue
			}
			if !valid(q) {
				rep.Conflicts = append(rep.Conflicts, [2]OptionRef{a.ref, b.ref})
			}
		}
	}
	return rep
}
