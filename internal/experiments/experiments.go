// Package experiments regenerates every table and figure of the
// paper's evaluation (§7 and Appendices A–D). Each experiment is a
// named runner that prints the same rows/series the paper reports;
// Registry is the index, and a runner's footer quotes the paper's
// value where the paper states one.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interaction"
	"repro/internal/qlog"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table 1: diffs records for the Figure 3 ASTs", runTable1},
		{"ex44", "Example 4.4: fitted widget cost functions", runExample44},
		{"fig5a", "Figure 5a: widgets for Listing 4 (parameter changes)", runFig5a},
		{"fig5b", "Figure 5b: single widget from a 3-query log", runFig5b},
		{"fig5c", "Figure 5c: split widgets from a 10-query log", runFig5c},
		{"fig5d", "Figure 5d: TOP toggle + slider (Listing 6)", runFig5d},
		{"fig5e", "Figure 5e: subquery toggle (Listing 7)", runFig5e},
		{"fig6a", "Figure 6a: recall vs training size, SDSS clients", runFig6a},
		{"fig6b", "Figure 6b: widgets for SDSS client C1", runFig6b},
		{"fig6c", "Figure 6c: recall, OLAP vs ad-hoc logs", runFig6c},
		{"fig6d", "Figure 6d: widgets for the OLAP log", runFig6d},
		{"fig7a", "Figure 7a: multi-client recall vs total training", runFig7a},
		{"fig7b", "Figure 7b: multi-client recall vs per-client training", runFig7b},
		{"fig7c", "Figure 7c: cross-client benefit histogram", runFig7c},
		{"fig8c", "Figure 8c: user study time and accuracy (simulated)", runFig8c},
		{"fig9", "Figure 9: pairwise recall matrix (22 clients)", runFig9},
		{"fig10", "Figure 10: histogram of hold-out recall", runFig10},
		{"fig11", "Figure 11: window size x LCA pruning", runFig11},
		{"fig12", "Figure 12: scalability to 10,000 queries", runFig12},
		{"fig13", "Figure 13: ordering effects (simulated study)", runFig13},
		{"fig15", "Figure 15: closure precision, no-filter vs filtered", runFig15},
		{"ext-cluster", "Extension (§3.3): clustering recovers per-analysis recall", runExtCluster},
		{"ext-speculate", "Extension (§4.5): dependencies, invalid options, conflicts", runExtSpeculate},
		{"ext-anomalies", "Extension (§3.3): anomalous-query removal", runExtAnomalies},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer) error {
	for _, e := range Registry() {
		if err := RunOne(w, e); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment with a header.
func RunOne(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "== %s — %s ==\n", e.ID, e.Title)
	if err := e.Run(w); err != nil {
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// table is a tiny aligned-column printer for experiment output.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-len(c))
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// describeWidgets renders the widget set of an interface as table rows.
func describeWidgets(tb *table, iface *core.Interface) {
	for _, w := range iface.Widgets {
		opts := w.Domain.Len()
		domain := ""
		if w.Domain.IsNumericRange() {
			lo, hi := w.Domain.Range()
			domain = fmt.Sprintf("[%g, %g]", lo, hi)
		} else {
			var vals []string
			for _, v := range w.Domain.Values() {
				s := "(absent)"
				if v != nil {
					s = ast.SQL(v)
				}
				if len(s) > 28 {
					s = s[:25] + "..."
				}
				vals = append(vals, s)
				if len(vals) == 4 {
					vals = append(vals, "...")
					break
				}
			}
			domain = strings.Join(vals, " | ")
		}
		tb.add(w.Type.Name, w.Path.String(), opts, domain)
	}
}

// generate is the shared pipeline entry for experiment logs. Micro-
// example experiments pass allPairs=true to mirror the unoptimized
// configuration their figures assume.
func generate(log *qlog.Log, allPairs bool) (*core.Interface, error) {
	opts := core.DefaultOptions()
	if allPairs {
		opts.Miner = interaction.Options{WindowSize: 0, LCAPrune: false}
	}
	return core.Generate(log, opts)
}

// recallCurve trains on growing prefixes and evaluates hold-out recall.
func recallCurve(train *qlog.Log, holdout []*ast.Node, sizes []int, opts core.Options) ([]float64, error) {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		if n > train.Len() {
			n = train.Len()
		}
		iface, err := core.Generate(train.Slice(0, n), opts)
		if err != nil {
			return nil, err
		}
		out[i] = iface.Recall(holdout)
	}
	return out, nil
}

// widgetSummary returns "type@path" for stable assertions in tests.
func widgetSummary(iface *core.Interface) []string {
	var out []string
	for _, w := range iface.Widgets {
		out = append(out, w.Type.Name+"@"+w.Path.String())
	}
	sort.Strings(out)
	return out
}
