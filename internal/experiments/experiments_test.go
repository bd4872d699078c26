package experiments

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/qlog"
)

func runToString(t *testing.T, id string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	var b strings.Builder
	if err := e.Run(&b); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return b.String()
}

func TestRegistryComplete(t *testing.T) {
	// Every table/figure of the paper's evaluation must be present.
	want := []string{
		"table1", "ex44",
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
		"fig6a", "fig6b", "fig6c", "fig6d",
		"fig7a", "fig7b", "fig7c",
		"fig8c", "fig9", "fig10", "fig11", "fig12", "fig13", "fig15",
	}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup should fail for unknown ids")
	}
}

// TestTable1Output pins the leaf rows of Table 1.
func TestTable1Output(t *testing.T) {
	out := runToString(t, "table1")
	for _, frag := range []string{"0/1/0", "sales", "costs", "USA", "EUR", "str", "tree"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table1 output missing %q:\n%s", frag, out)
		}
	}
}

// TestFig5Outputs pins the widget sets the paper's Figure 5 shows.
func TestFig5Outputs(t *testing.T) {
	cases := []struct {
		id       string
		expected []string
		absent   []string
	}{
		{"fig5a", []string{"drop-down", "slider"}, []string{"radio"}},
		{"fig5b", []string{"radio-button"}, []string{"slider", "drop-down"}},
		{"fig5c", []string{"toggle-button", "drop-down"}, []string{"radio"}},
		{"fig5d", []string{"toggle-button", "slider", "[1, 10]"}, nil},
		{"fig5e", []string{"toggle-button", "slider", "[10, 20]"}, nil},
	}
	for _, c := range cases {
		out := runToString(t, c.id)
		for _, frag := range c.expected {
			if !strings.Contains(out, frag) {
				t.Errorf("%s missing %q:\n%s", c.id, frag, out)
			}
		}
		for _, frag := range c.absent {
			if strings.Contains(out, frag) {
				t.Errorf("%s unexpectedly contains %q:\n%s", c.id, frag, out)
			}
		}
		if !strings.Contains(out, "expressiveness over log=100%") {
			t.Errorf("%s: training log not fully expressible:\n%s", c.id, out)
		}
	}
}

func TestExample44Output(t *testing.T) {
	out := runToString(t, "ex44")
	if !strings.Contains(out, "276 + 125.00*n + 0.070*n^2") {
		t.Errorf("ex44 missing the published drop-down constants:\n%s", out)
	}
	if !strings.Contains(out, "4790") {
		t.Errorf("ex44 missing the textbox constant:\n%s", out)
	}
}

// TestFig6bWidgets pins the C1 interface: table drop-down, attribute
// widget, numeric slider.
func TestFig6bWidgets(t *testing.T) {
	out := runToString(t, "fig6b")
	if !strings.Contains(out, "slider") {
		t.Errorf("fig6b missing slider:\n%s", out)
	}
	if !strings.Contains(out, "SpecLineIndex") {
		t.Errorf("fig6b missing table options:\n%s", out)
	}
}

// TestMicroExperimentsDeterministic: repeated runs print identical
// output (no hidden global randomness).
func TestMicroExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"table1", "fig5a", "fig5d", "fig6b", "fig6d", "fig8c"} {
		if a, b := runToString(t, id), runToString(t, id); a != b {
			t.Errorf("%s output not deterministic", id)
		}
	}
}

// TestFig8cOutput checks the headline study numbers appear.
func TestFig8cOutput(t *testing.T) {
	out := runToString(t, "fig8c")
	if !strings.Contains(out, "sdss-form") || !strings.Contains(out, "precision-interfaces") {
		t.Fatalf("fig8c missing conditions:\n%s", out)
	}
	// SDSS Task 1 sits near the 60s cap: the rendered mean starts "5"
	// and has two digits before the decimal point.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Task 1") && strings.Contains(line, "sdss-form") &&
			(strings.Contains(line, "  5") || strings.Contains(line, "  60")) {
			found = true
		}
	}
	if !found {
		t.Errorf("fig8c: SDSS Task 1 should sit near the 60s cap:\n%s", out)
	}
}

// TestFig7aOutput checks Figure 7a's shape: within a row recall never
// falls as training grows, and at a fixed total the mixed log of 8
// clients recalls less than a single client's.
func TestFig7aOutput(t *testing.T) {
	rows := map[string][]float64{}
	for _, line := range strings.Split(runToString(t, "fig7a"), "\n") {
		f := strings.Fields(line)
		if len(f) != 8 || f[0] == "M" || f[0] == "-" {
			continue
		}
		for _, v := range f[1:] {
			r, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("fig7a row %q: %v", line, err)
			}
			if n := len(rows[f[0]]); n > 0 && r < rows[f[0]][n-1] {
				t.Errorf("fig7a M=%s: recall falls with more training: %q", f[0], line)
			}
			rows[f[0]] = append(rows[f[0]], r)
		}
	}
	if len(rows) != 4 || rows["1"][2] <= rows["8"][2] {
		t.Fatalf("fig7a rows = %v, want M=1,3,5,8 with M=1 above M=8 at n=20", rows)
	}
}

// TestFig13Anova checks the ANOVA lines render with significant p.
func TestFig13Anova(t *testing.T) {
	out := runToString(t, "fig13")
	for _, factor := range []string{"task:", "interface:", "order:", "task x interface:"} {
		if !strings.Contains(out, factor) {
			t.Errorf("fig13 missing ANOVA factor %q", factor)
		}
	}
}

func TestRunOneHeader(t *testing.T) {
	e, _ := Lookup("table1")
	var b strings.Builder
	if err := RunOne(&b, e); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "== table1 —") {
		t.Fatalf("missing header: %q", b.String()[:40])
	}
}

func TestTableFormatter(t *testing.T) {
	tb := newTable("a", "long-header")
	tb.add("x", 1)
	tb.add("longer-cell", 2.5)
	var b strings.Builder
	tb.write(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[0], "long-header") || !strings.Contains(lines[3], "2.5") {
		t.Fatalf("format wrong:\n%s", b.String())
	}
}

func TestRecallCurveMonotoneInputs(t *testing.T) {
	// recallCurve clamps sizes beyond the training log.
	train := qlog.FromSQL("SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x = 2")
	hold, err := qlog.FromSQL("SELECT a FROM t WHERE x = 1").Parse()
	if err != nil {
		t.Fatal(err)
	}
	curve, err := recallCurve(train, hold, []int{1, 2, 50}, recallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve = %v", curve)
	}
	if curve[2] != 1 {
		t.Fatalf("clamped training should express the identical holdout: %v", curve)
	}
}

func TestWidgetSummaryStable(t *testing.T) {
	out1 := runToString(t, "fig5d")
	out2 := runToString(t, "fig5d")
	if out1 != out2 {
		t.Fatal("fig5d unstable")
	}
	_ = io.Discard
}
