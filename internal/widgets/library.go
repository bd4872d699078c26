package widgets

import (
	"repro/internal/ast"
)

// Type is a widget type WT = (r, c): a constraint rule and a cost
// function (§4.3). Name identifies the HTML control; Kind is the
// primitive kind the control natively accepts (domains of castable
// kinds are accepted too: numbers cast to strings, anything to trees).
type Type struct {
	Name    string
	Kind    ast.Kind
	Cost    CostFunc
	MaxOpts int  // 0 = unbounded; e.g. a toggle accepts at most 2 options
	Numeric bool // requires an extrapolatable numeric domain (sliders)
	// CollectionOnly restricts the widget to domains whose members are
	// all collection nodes (Project, GroupBy, ...), the natural targets
	// of checkbox lists (§4.1 collection annotation).
	CollectionOnly bool
}

// Accepts implements the widget rule r_WT(w.d): it checks that every
// subtree in the domain is of a type the widget can express.
func (t *Type) Accepts(d *Domain) bool {
	if d.Len() == 0 {
		return false
	}
	if t.MaxOpts > 0 && d.Len() > t.MaxOpts {
		return false
	}
	if t.Numeric && !d.IsNumericRange() {
		return false
	}
	if t.CollectionOnly && !d.AllCollections() {
		return false
	}
	return d.Kind().CastableTo(t.Kind)
}

// The nine widget types of §7 ("We defined 9 HTML widget types natively
// supported in modern browsers"). Cost constants follow Example 4.4
// where published (drop-down, textbox); the rest are fitted from the
// same synthetic-trace procedure and chosen so the orderings reproduce
// the paper's widget selections:
//
//   - toggle/checkbox are cheapest for 2-option domains (Figure 5d);
//   - radio beats splitting into two drop-downs at 3 whole-query
//     options but loses at 10 (Figures 5b/5c);
//   - slider is preferred for numeric domains of any size (Figure 6b);
//   - textbox is a constant and wins over drop-down for very large
//     string domains;
//   - drag-and-drop is the generic tree fallback; checkbox-list applies
//     to collection nodes (Project, GroupBy, ...).
var (
	Textbox = &Type{Name: "textbox", Kind: ast.KindString,
		Cost: CostFunc{A0: 4790}}
	ToggleButton = &Type{Name: "toggle-button", Kind: ast.KindTree,
		Cost: CostFunc{A0: 250, A1: 50}, MaxOpts: 2}
	Checkbox = &Type{Name: "checkbox", Kind: ast.KindTree,
		Cost: CostFunc{A0: 260, A1: 55}, MaxOpts: 2}
	RadioButton = &Type{Name: "radio-button", Kind: ast.KindTree,
		Cost: CostFunc{A0: 200, A1: 160, A2: 0.1}, MaxOpts: 4}
	Dropdown = &Type{Name: "drop-down", Kind: ast.KindString,
		Cost: CostFunc{A0: 276, A1: 125, A2: 0.07}}
	Slider = &Type{Name: "slider", Kind: ast.KindNumber,
		Cost: CostFunc{A0: 320, A1: 10}, Numeric: true}
	RangeSlider = &Type{Name: "range-slider", Kind: ast.KindNumber,
		Cost: CostFunc{A0: 600, A1: 12}, Numeric: true}
	CheckboxList = &Type{Name: "checkbox-list", Kind: ast.KindTree,
		Cost: CostFunc{A0: 350, A1: 150, A2: 5.0}, CollectionOnly: true}
	// The quadratic term matters: scanning many large subtree options is
	// superlinearly painful, which is what stops the merge phase from
	// collapsing a heterogeneous multi-client log into one giant
	// whole-query selector (§7.2.3).
	DragDrop = &Type{Name: "drag-and-drop", Kind: ast.KindTree,
		Cost: CostFunc{A0: 500, A1: 140, A2: 10.0}}
)

// Library is an ordered list of widget types; order breaks cost ties
// deterministically (earlier wins).
type Library []*Type

// DefaultLibrary returns the nine-type library with the paper-default
// cost constants.
func DefaultLibrary() Library {
	return Library{
		ToggleButton, Checkbox, Slider, RangeSlider, RadioButton,
		Dropdown, CheckboxList, DragDrop, Textbox,
	}
}

// Widget is an instantiated widget w: a widget type bound to a path in
// the AST and a domain of subtrees it can swap in at that path (§4.3).
type Widget struct {
	Type   *Type
	Path   ast.Path
	Domain *Domain
	// Label is a human-readable caption filled by the interface editor.
	Label string
}

// Cost is c_WT(w.d).
func (w *Widget) Cost() float64 { return w.Type.Cost.Eval(w.Domain.Len()) }

// Pick implements pickWidget (Algorithm 2): among the library types
// whose rules accept the domain, instantiate the one with minimal cost.
// It returns nil when no type accepts (cannot happen with the default
// library, which always has a tree-kind fallback).
func (l Library) Pick(path ast.Path, d *Domain) *Widget {
	var best *Type
	bestCost := 0.0
	for _, t := range l {
		if !t.Accepts(d) {
			continue
		}
		c := t.Cost.Eval(d.Len())
		if best == nil || c < bestCost {
			best, bestCost = t, c
		}
	}
	if best == nil {
		return nil
	}
	return &Widget{Type: best, Path: path.Clone(), Domain: d}
}
