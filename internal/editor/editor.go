// Package editor implements the interface editor of §5.3: after
// mapping, "an editor interface renders the widgets in a grid. The user
// can optionally edit, add labels, or change the widget type for each
// widget. The editor lets users modify the layout and sizes of the
// widgets". This is the programmatic model of that editor: a layout of
// cells over the mapped widgets supporting relabeling, retyping (with
// rule checking), moving, resizing, and hiding, plus a standard
// auto-layout. Compile hands the edited interface to internal/htmlgen.
package editor

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/htmlgen"
	"repro/internal/widgets"
)

// Cell is one widget's placement in the editor grid.
type Cell struct {
	// Widget indexes into the session's interface widgets.
	Widget int
	// Row/Col are grid coordinates; ColSpan is the cell width (>= 1).
	Row, Col, ColSpan int
	// Hidden removes the widget from the compiled page without deleting
	// it from the interface.
	Hidden bool
}

// Session is an editing session over a generated interface.
type Session struct {
	iface *core.Interface
	cells []Cell
	lib   widgets.Library
}

// NewSession opens an editor over the interface with the standard
// auto-layout applied ("a standard layout algorithm could be run"):
// one widget per row, in path order, full width.
func NewSession(iface *core.Interface, lib widgets.Library) *Session {
	if lib == nil {
		lib = widgets.DefaultLibrary()
	}
	s := &Session{iface: iface, lib: lib}
	s.AutoLayout()
	return s
}

// Interface returns the underlying interface (edits to labels and types
// are applied in place; layout lives in the session).
func (s *Session) Interface() *core.Interface { return s.iface }

// Cells returns the current layout in (row, col) order.
func (s *Session) Cells() []Cell {
	out := make([]Cell, len(s.cells))
	copy(out, s.cells)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// AutoLayout resets to the standard layout: one widget per row in path
// order.
func (s *Session) AutoLayout() {
	s.cells = s.cells[:0]
	for i := range s.iface.Widgets {
		s.cells = append(s.cells, Cell{Widget: i, Row: i, Col: 0, ColSpan: 1})
	}
}

func (s *Session) cell(widget int) (*Cell, error) {
	if widget < 0 || widget >= len(s.iface.Widgets) {
		return nil, fmt.Errorf("editor: no widget %d (have %d)", widget, len(s.iface.Widgets))
	}
	for i := range s.cells {
		if s.cells[i].Widget == widget {
			return &s.cells[i], nil
		}
	}
	return nil, fmt.Errorf("editor: widget %d has no cell", widget)
}

// SetLabel renames a widget's caption.
func (s *Session) SetLabel(widget int, label string) error {
	if widget < 0 || widget >= len(s.iface.Widgets) {
		return fmt.Errorf("editor: no widget %d", widget)
	}
	s.iface.Widgets[widget].Label = label
	return nil
}

// SetType changes a widget's type, enforcing the widget rule r_WT: the
// new type must accept the widget's domain (e.g. a slider cannot take a
// string domain).
func (s *Session) SetType(widget int, typ *widgets.Type) error {
	if widget < 0 || widget >= len(s.iface.Widgets) {
		return fmt.Errorf("editor: no widget %d", widget)
	}
	w := s.iface.Widgets[widget]
	if !typ.Accepts(w.Domain) {
		return fmt.Errorf("editor: %s does not accept this widget's domain (kind %s, %d options)",
			typ.Name, w.Domain.Kind(), w.Domain.Len())
	}
	w.Type = typ
	return nil
}

// TypeByName resolves a widget type from the session's library.
func (s *Session) TypeByName(name string) (*widgets.Type, error) {
	for _, t := range s.lib {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("editor: unknown widget type %q", name)
}

// Move places a widget at a grid position.
func (s *Session) Move(widget, row, col int) error {
	c, err := s.cell(widget)
	if err != nil {
		return err
	}
	if row < 0 || col < 0 {
		return fmt.Errorf("editor: negative grid position (%d, %d)", row, col)
	}
	c.Row, c.Col = row, col
	return nil
}

// Resize sets a cell's column span.
func (s *Session) Resize(widget, colSpan int) error {
	c, err := s.cell(widget)
	if err != nil {
		return err
	}
	if colSpan < 1 {
		return fmt.Errorf("editor: column span must be >= 1")
	}
	c.ColSpan = colSpan
	return nil
}

// Hide toggles a widget's visibility in the compiled page.
func (s *Session) Hide(widget int, hidden bool) error {
	c, err := s.cell(widget)
	if err != nil {
		return err
	}
	c.Hidden = hidden
	return nil
}

// Compile produces the final web application from the edited interface:
// hidden widgets are dropped, the rest are emitted in layout order.
func (s *Session) Compile(title string) (string, error) {
	ordered := s.Cells()
	visible := &core.Interface{
		Initial: s.iface.Initial,
		Graph:   s.iface.Graph,
		Stats:   s.iface.Stats,
	}
	for _, c := range ordered {
		if c.Hidden {
			continue
		}
		visible.Widgets = append(visible.Widgets, s.iface.Widgets[c.Widget])
	}
	return htmlgen.Compile(visible, htmlgen.Page{Title: title})
}
