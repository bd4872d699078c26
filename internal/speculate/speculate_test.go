package speculate

import (
	"testing"

	"repro/internal/core"
	"repro/internal/qlog"
	"repro/internal/schema"
)

func generate(t *testing.T, sqls ...string) *core.Interface {
	t.Helper()
	iface, err := core.Generate(qlog.FromSQL(sqls...), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return iface
}

// TestDependenciesFig5d reproduces the Figure 5d relationship: the TOP
// value slider is only active while the TOP toggle is on.
func TestDependenciesFig5d(t *testing.T) {
	iface := generate(t,
		"SELECT g.objID FROM Galaxy g",
		"SELECT TOP 1 g.objID FROM Galaxy g",
		"SELECT TOP 10 g.objID FROM Galaxy g")
	deps := Dependencies(iface)
	if len(deps) != 1 {
		t.Fatalf("dependencies = %v, want exactly one (slider on toggle)", deps)
	}
	d := deps[0]
	toggle := iface.Widgets[d.On]
	slider := iface.Widgets[d.Widget]
	if toggle.Type.Name != "toggle-button" || slider.Type.Name != "slider" {
		t.Fatalf("dependency direction wrong: %s depends on %s",
			slider.Type.Name, toggle.Type.Name)
	}
	// Only the TOP-present option supports the slider.
	if len(d.ActiveOptions) != 1 {
		t.Fatalf("active options = %v, want exactly the TOP-present one", d.ActiveOptions)
	}
	v := toggle.Domain.Values()[d.ActiveOptions[0]]
	if v == nil || v.NumChildren() == 0 {
		t.Fatalf("active option should be the populated Limit subtree, got %v", v)
	}
}

// TestDependenciesFig5e: the subquery toggle controls the inner
// projection widget and the inner predicate slider.
func TestDependenciesFig5e(t *testing.T) {
	iface := generate(t,
		"SELECT * FROM T",
		"SELECT * FROM (SELECT a FROM T WHERE b > 10)",
		"SELECT * FROM (SELECT a FROM T WHERE b > 20)",
		"SELECT * FROM (SELECT b FROM T WHERE b > 20)")
	deps := Dependencies(iface)
	if len(deps) != 2 {
		t.Fatalf("dependencies = %v, want 2 (both inner widgets on the toggle)", deps)
	}
	for _, d := range deps {
		if iface.Widgets[d.On].Type.Name != "toggle-button" {
			t.Fatalf("controller should be the subquery toggle, got %s",
				iface.Widgets[d.On].Type.Name)
		}
	}
}

func TestNoDependenciesForFlatInterface(t *testing.T) {
	iface := generate(t,
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2",
		"SELECT a FROM t WHERE x = 9")
	if deps := Dependencies(iface); len(deps) != 0 {
		t.Fatalf("flat interface should have no dependencies, got %v", deps)
	}
}

// TestVerifyFindsCrossTableConflicts: the classic Appendix D mixup — a
// table option combined with another table's attribute — is flagged as
// a pairwise conflict.
func TestVerifyFindsCrossTableConflicts(t *testing.T) {
	// Each consecutive pair changes exactly one component, so the
	// mapper keeps independent projection/table/id widgets. The log
	// contains (tempNo, SpecLineIndex), (ew, SpecLineIndex) and
	// (tempNo, XCRedshift) but never (ew, XCRedshift): each option is
	// individually valid from q0, and exactly that cross-product pair
	// violates the schema.
	log := qlog.FromSQL(
		"SELECT tempNo FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT ew FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT tempNo FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT tempNo FROM XCRedshift WHERE specObjId = 0x10",
		"SELECT tempNo FROM XCRedshift WHERE specObjId = 0x90")
	iface := generate(t, log.SQLs()...)
	queries, err := log.Parse()
	if err != nil {
		t.Fatal(err)
	}
	catalog := schema.InferFromQueries(queries)
	rep := Verify(iface, catalog, 0)
	if rep.Checked == 0 || rep.Valid == 0 {
		t.Fatalf("verification did not run: %+v", rep)
	}
	if len(rep.Conflicts) == 0 {
		t.Fatalf("expected cross-table conflicts, got none (report %+v)", rep)
	}
	// Every conflict involves two different widgets.
	for _, c := range rep.Conflicts {
		if c[0].Widget == c[1].Widget {
			t.Fatalf("conflict within one widget: %v", c)
		}
	}
}

func TestVerifyCleanInterfaceHasNoConflicts(t *testing.T) {
	iface := generate(t,
		"SELECT ew FROM SpecLineIndex WHERE specObjId = 0x10",
		"SELECT ew FROM SpecLineIndex WHERE specObjId = 0x20",
		"SELECT ew FROM SpecLineIndex WHERE specObjId = 0x90")
	queries, _ := qlog.FromSQL("SELECT ew FROM SpecLineIndex WHERE specObjId = 0x10").Parse()
	catalog := schema.InferFromQueries(queries)
	rep := Verify(iface, catalog, 0)
	if len(rep.BadOptions) != 0 || len(rep.Conflicts) != 0 {
		t.Fatalf("single-analysis interface should verify clean: %+v", rep)
	}
	if rep.Valid != rep.Checked {
		t.Fatalf("valid %d != checked %d", rep.Valid, rep.Checked)
	}
}

func TestVerifyPairCap(t *testing.T) {
	iface := generate(t,
		"SELECT a FROM t WHERE x = 1 AND name = 'p'",
		"SELECT a FROM t WHERE x = 2 AND name = 'q'",
		"SELECT a FROM t WHERE x = 9 AND name = 'r'",
		"SELECT a FROM t WHERE x = 4 AND name = 'p'",
		"SELECT a FROM t WHERE x = 7 AND name = 'q'")
	queries, _ := qlog.FromSQL("SELECT a FROM t WHERE x = 1 AND name = 'p'").Parse()
	catalog := schema.InferFromQueries(queries)
	full := Verify(iface, catalog, 0)
	capped := Verify(iface, catalog, 1)
	if capped.Checked >= full.Checked {
		t.Fatalf("cap had no effect: %d vs %d", capped.Checked, full.Checked)
	}
}
