// Package vis is the render() substrate of §3.3: "render() either
// generates a simple visualization [30, 31] or renders a table". It
// implements a small ShowMe/APT-style rule engine that inspects the
// result relation's column types and cardinalities and picks an
// encoding — bar chart for one categorical + one quantitative column,
// line chart for ordered quantitative x, scatter for two quantitative
// columns, table otherwise — and renders the choice as a standalone
// SVG (charts) or ASCII grid (tables).
package vis

import (
	"fmt"
	"html"
	"math"
	"strings"

	"repro/internal/engine"
)

// ChartKind enumerates the supported encodings.
type ChartKind int

const (
	KindTable ChartKind = iota
	KindBar
	KindLine
	KindScatter
)

// Spec is the chosen visualization: the chart kind and the column
// indices bound to the x and y channels (-1 when unused).
type Spec struct {
	Kind ChartKind
	X, Y int
}

// colProfile summarizes one column for the chooser.
type colProfile struct {
	numeric  bool // every non-null value is numeric
	distinct int
	ordered  bool // values appear in non-decreasing order (numeric only)
}

func profile(t *engine.Table, col int) colProfile {
	p := colProfile{numeric: true, ordered: true}
	seen := map[string]bool{}
	prev := math.Inf(-1)
	for _, row := range t.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		seen[v.Key()] = true
		f, ok := v.AsNumber()
		if !ok || v.Kind == engine.KindString {
			p.numeric = false
			p.ordered = false
			continue
		}
		if f < prev {
			p.ordered = false
		}
		prev = f
	}
	p.distinct = len(seen)
	return p
}

// Choose picks an encoding for a result relation, following the
// priority rules of automatic presentation systems:
//
//  1. categorical x (small cardinality) + quantitative y → bar;
//  2. ordered quantitative x + quantitative y → line;
//  3. two quantitative columns → scatter;
//  4. anything else → table.
func Choose(t *engine.Table) Spec {
	if len(t.Cols) < 2 || len(t.Rows) == 0 {
		return Spec{Kind: KindTable, X: -1, Y: -1}
	}
	profiles := make([]colProfile, len(t.Cols))
	for i := range t.Cols {
		profiles[i] = profile(t, i)
	}
	// First quantitative column to serve as y.
	yFor := func(notCol int) int {
		for i, p := range profiles {
			if i != notCol && p.numeric && p.distinct > 0 {
				return i
			}
		}
		return -1
	}
	// Rule 1: categorical + quantitative → bar.
	for x, p := range profiles {
		if !p.numeric && p.distinct > 0 && p.distinct <= 24 {
			if y := yFor(x); y >= 0 {
				return Spec{Kind: KindBar, X: x, Y: y}
			}
		}
	}
	// Rule 2: ordered quantitative x → line.
	for x, p := range profiles {
		if p.numeric && p.ordered && p.distinct > 2 {
			if y := yFor(x); y >= 0 {
				return Spec{Kind: KindLine, X: x, Y: y}
			}
		}
	}
	// Rule 3: two quantitative columns → scatter.
	for x, p := range profiles {
		if p.numeric && p.distinct > 1 {
			if y := yFor(x); y >= 0 {
				return Spec{Kind: KindScatter, X: x, Y: y}
			}
		}
	}
	return Spec{Kind: KindTable, X: -1, Y: -1}
}

// Render visualizes the relation with the automatically chosen
// encoding: SVG for charts, the ASCII grid for tables.
func Render(t *engine.Table) string {
	spec := Choose(t)
	if spec.Kind == KindTable {
		return t.Render()
	}
	return RenderSVG(t, spec, 480, 280)
}

// RenderSVG renders a chart spec as a standalone SVG document.
func RenderSVG(t *engine.Table, spec Spec, width, height int) string {
	const margin = 40
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, width, height)
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		margin, height-margin, width-margin, height-margin)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		margin, margin, margin, height-margin)
	// Axis labels from column names.
	if spec.X >= 0 && spec.X < len(t.Cols) {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>`,
			width/2, height-8, html.EscapeString(t.Cols[spec.X]))
	}
	if spec.Y >= 0 && spec.Y < len(t.Cols) {
		fmt.Fprintf(&b, `<text x="12" y="%d" font-size="11" text-anchor="middle" transform="rotate(-90 12 %d)">%s</text>`,
			height/2, height/2, html.EscapeString(t.Cols[spec.Y]))
	}

	ys := numericColumn(t, spec.Y)
	ymin, ymax := bounds(ys)
	scaleY := func(v float64) float64 {
		if ymax == ymin {
			return float64(height-margin) - plotH/2
		}
		return float64(height-margin) - (v-ymin)/(ymax-ymin)*plotH
	}

	switch spec.Kind {
	case KindBar:
		n := len(t.Rows)
		if n == 0 {
			break
		}
		bw := plotW / float64(n)
		for i, row := range t.Rows {
			v, _ := row[spec.Y].AsNumber()
			x := float64(margin) + float64(i)*bw
			y := scaleY(v)
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#4477aa"/>`,
				x+1, y, bw-2, float64(height-margin)-y)
			label := row[spec.X].String()
			if len(label) > 8 {
				label = label[:8]
			}
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="9" text-anchor="middle">%s</text>`,
				x+bw/2, height-margin+12, html.EscapeString(label))
		}
	case KindLine, KindScatter:
		xs := numericColumn(t, spec.X)
		xmin, xmax := bounds(xs)
		scaleX := func(v float64) float64 {
			if xmax == xmin {
				return float64(margin) + plotW/2
			}
			return float64(margin) + (v-xmin)/(xmax-xmin)*plotW
		}
		var pts []string
		for i := range t.Rows {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", scaleX(xs[i]), scaleY(ys[i])))
		}
		if spec.Kind == KindLine {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#4477aa" stroke-width="1.5"/>`,
				strings.Join(pts, " "))
		}
		for _, p := range pts {
			xy := strings.SplitN(p, ",", 2)
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="#4477aa"/>`, xy[0], xy[1])
		}
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func numericColumn(t *engine.Table, col int) []float64 {
	out := make([]float64, len(t.Rows))
	if col < 0 {
		return out
	}
	for i, row := range t.Rows {
		out[i], _ = row[col].AsNumber()
	}
	return out
}

func bounds(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 1
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > 0 {
		lo = 0 // bars anchor at zero
	}
	return lo, hi
}
