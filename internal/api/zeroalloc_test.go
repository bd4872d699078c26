package api

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/engine"
	"repro/internal/sqlparser"
)

// TestAppendPlanKeyMatchesPlanKey pins the byte identity between the
// allocating key builder (PlanKey, used when storing) and the pooled
// one (AppendPlanKey, used when probing): any divergence would turn
// every cache hit into a miss — silently, since both paths are
// correct in isolation.
func TestAppendPlanKeyMatchesPlanKey(t *testing.T) {
	num := func(f float64) *float64 { return &f }
	txt := func(s string) *string { return &s }
	val := func(sql string) *ast.Node {
		q := sqlparser.MustParse("SELECT a FROM t WHERE x = " + sql)
		var lit *ast.Node
		q.Walk(func(n *ast.Node, _ ast.Path) bool {
			if n != nil && n.Type == ast.TypeBiExpr && n.Attr("op") == "=" {
				lit = n.Child(1)
			}
			return true
		})
		if lit == nil {
			t.Fatalf("no literal in %q", sql)
		}
		return lit
	}

	cases := [][]WidgetBinding{
		nil,
		{},
		{{Path: "0/1", Number: num(3.5)}},
		{{Path: "0/1", Number: num(-0.000001)}},
		{{Path: "0/1", Text: txt("O'Hare|5:x")}},
		{{Path: "0/1", Text: txt("")}},
		{{Path: "0/1", Absent: true}},
		{{Path: "0/1"}}, // malformed: nothing set
		{{Path: "2/0/1", Value: val("42")}},
		{{Path: "2/0/1", Value: val("'ORD'")}},
		// Multi-binding: sort order must match regardless of input order.
		{
			{Path: "3/1", Number: num(7)},
			{Path: "0/2", Text: txt("zzz")},
			{Path: "1/0", Absent: true},
		},
		{
			{Path: "b", Text: txt("1")},
			{Path: "a", Text: txt("2")},
			{Path: "a", Text: txt("1")},
		},
		// Adversarial: path content that looks like another binding's
		// rendering (the length prefixes keep these apart).
		{
			{Path: "3:abc", Text: txt("n3:1.5")},
			{Path: "3", Text: txt("abcn3:1.5")},
		},
	}

	sc := &planKeyScratch{}
	for i, bindings := range cases {
		want := PlanKey(bindings)
		sc.AppendPlanKey(bindings)
		if got := string(sc.buf); got != want {
			t.Errorf("case %d: AppendPlanKey = %q, PlanKey = %q", i, got, want)
		}
	}
}

// TestQueryIntoCachedPathAllocs pins the tentpole's third layer: a
// warm query (plan hit + result hit) served through QueryIntoCtx must
// cost at most one heap allocation — the before state of this path
// was five.
func TestQueryIntoCachedPathAllocs(t *testing.T) {
	svc, h := newTestService(t)
	w := sliderWidget(t, h.Iface())
	lo, _ := w.Domain.Range()
	req := QueryRequest{Widgets: []WidgetBinding{{Path: w.Path.String(), Number: &lo}}}

	var resp QueryResponse
	// Warm: first call populates both caches and the key-scratch pool.
	for i := 0; i < 3; i++ {
		if err := svc.QueryIntoCtx(context.Background(), "olap", req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if resp.Plan != "hit" || resp.Cache != "hit" {
		t.Fatalf("warmup did not reach the cached path: plan=%s cache=%s", resp.Plan, resp.Cache)
	}

	allocs := testing.AllocsPerRun(200, func() {
		if err := svc.QueryIntoCtx(context.Background(), "olap", req, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cached query path allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestQueryColumnarMatchesRowPath runs the mined OLAP interface's
// widget states through a service, which runs the vectorized kernels
// whenever a plan compiles to their shape, and requires every answer
// to equal the row interpreter's (engine.Exec) on the same bound
// query. This is the service-level half of the identity guarantee
// (the engine-level corpus test covers raw SQL): whatever the planner
// selects, the wire format cannot tell.
func TestQueryColumnarMatchesRowPath(t *testing.T) {
	iface, db := minedOLAP(t)
	reg := NewRegistry()
	if _, err := reg.Add("olap", "t", iface, db); err != nil {
		t.Fatal(err)
	}
	svc := NewService(reg)

	reqs := []QueryRequest{{}} // the initial query
	for _, w := range iface.Widgets {
		for i, v := range w.Domain.Values() {
			if i >= 4 { // a few values per widget is plenty
				break
			}
			b := WidgetBinding{Path: w.Path.String()}
			if v == nil {
				b.Absent = true
			} else {
				b.Value = v
			}
			reqs = append(reqs, QueryRequest{Widgets: []WidgetBinding{b}})
		}
	}

	ran, columnar := 0, 0
	for _, req := range reqs {
		got, err := svc.Query("olap", req)
		q, bindErr := Bind(iface, req.Widgets)
		if bindErr != nil {
			if err == nil {
				t.Fatalf("req %+v: service answered a state Bind rejects: %v", req, bindErr)
			}
			continue
		}
		if _, ok := engine.CompileColumnar(q); ok {
			columnar++
		}
		want, wantErr := engine.Exec(db, q)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("req %+v: service err=%v, row err=%v", req, err, wantErr)
		}
		if err != nil {
			if err.Error() != "exec: "+wantErr.Error() {
				t.Fatalf("req %+v: error text diverged: %q vs %q", req, err, wantErr)
			}
			continue
		}
		wantRows := rowsJSON(want, 0, len(want.Rows))
		if got.RowCount != len(want.Rows) || !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, wantRows) {
			t.Fatalf("req %+v:\nservice: %s\nrow:     cols=%v rows=%d first=%v", req, dumpResp(got), want.Cols, len(wantRows), wantRows[:min(1, len(wantRows))])
		}
		ran++
	}
	if ran == 0 || columnar == 0 {
		t.Fatalf("%d requests executed, %d of them columnar; want some of each", ran, columnar)
	}
}

func dumpResp(r *QueryResponse) string {
	return fmt.Sprintf("sql=%q rows=%d first=%v", r.SQL, r.RowCount, firstRow(r))
}

func firstRow(r *QueryResponse) []any {
	if len(r.Rows) == 0 {
		return nil
	}
	return r.Rows[0]
}
