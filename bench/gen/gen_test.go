package gen

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/engine"
)

// The serve_* sizes of the real benchmark: the state pools the tests
// validate are the ones a run uses (pools are prefix-stable).
func testServing(t *testing.T) *Serving {
	t.Helper()
	sv, err := NewServing([]string{"olap", "adhoc", "sdss"}, 1000, 20000, ContentSeed)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wire is what a plan puts on the wire, in order.
func wire(p *ReadPlan) (out []api.QueryRequest) {
	for _, idx := range [][]int{p.Warm, p.Timed} {
		for _, i := range idx {
			out = append(out, p.States[i].Request(200))
		}
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	sv := testServing(t)
	build := func(seed int64) [][]byte {
		hit, err := HitPlan(sv, seed, 300, 500)
		if err != nil {
			t.Fatal(err)
		}
		miss, err := MissPlan(sv, seed, 10, 60)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if err := MineLog(500, seed).Write(&log); err != nil {
			t.Fatal(err)
		}
		return [][]byte{
			mustJSON(t, wire(hit)), mustJSON(t, wire(miss)),
			mustJSON(t, NewIngestPlan(seed, 100, 5, 8)),
			mustJSON(t, FleetPlan(seed, 4)), log.Bytes(),
		}
	}
	a, b, c := build(1), build(1), build(2)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("input %d differs between two builds with seed 1", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 1 and 2", i)
		}
	}
}

// execFull runs the state the way the server would and fails the test
// on any error: every generated state binds and executes.
func execFull(t *testing.T, sv *Serving, st *State) {
	t.Helper()
	h := sv.Get(st.Iface)
	q, err := api.Bind(h.Iface, st.Bindings)
	if err != nil {
		t.Fatalf("%s: bind: %v", st.Iface, err)
	}
	if !ast.Equal(q, st.Query) {
		t.Fatalf("%s: bindings bind to %s, state says %s", st.Iface, ast.SQL(q), ast.SQL(st.Query))
	}
	if _, ok := engine.CompileColumnar(q); ok != st.Columnar {
		t.Fatalf("%s: CompileColumnar=%v, state says %v", st.Iface, ok, st.Columnar)
	}
	if _, err := engine.Exec(h.DB, q); err != nil {
		t.Fatalf("%s: exec %s: %v", st.Iface, ast.SQL(q), err)
	}
}

func TestHitPlan(t *testing.T) {
	sv := testServing(t)
	p, err := HitPlan(sv, 3, 400, 2000)
	if err != nil {
		t.Fatal(err)
	}
	perIface := map[string]int{}
	for i := range p.States {
		perIface[p.States[i].Iface]++
	}
	for id, n := range perIface {
		if n > HitStatesPerIface {
			t.Errorf("%s: %d states, want <= %d", id, n, HitStatesPerIface)
		}
	}
	if len(perIface) != 3 {
		t.Errorf("states cover %d interfaces, want 3", len(perIface))
	}
	touched := map[int]bool{}
	for _, i := range p.Warm {
		touched[i] = true
	}
	ops := map[string]int{}
	for _, i := range p.Timed {
		if !touched[i] {
			t.Fatalf("timed op asks for state %d the warm-up never touched", i)
		}
		ops[p.States[i].Iface]++
	}
	if len(p.Warm) != 400 || len(p.Timed) != 2000 {
		t.Fatalf("plan has %d warm + %d timed ops", len(p.Warm), len(p.Timed))
	}
	for i, id := range []string{"olap", "adhoc", "sdss"} {
		if got := 100 * float64(ops[id]) / 2000; math.Abs(got-float64(hitMix[i])) > 5 {
			t.Errorf("%s gets %.1f%% of ops, want %d%%", id, got, hitMix[i])
		}
	}
	// The row interpreter on 20k rows is slow; a sample of the working
	// set bounds the test, the run-time oracle covers the rest.
	for i := 0; i < len(p.States); i += 8 {
		execFull(t, sv, &p.States[i])
	}
}

func TestMissPlan(t *testing.T) {
	sv := testServing(t)
	p, err := MissPlan(sv, 5, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Warm) != 20 || len(p.Timed) != 200 {
		t.Fatalf("plan has %d warm + %d timed ops", len(p.Warm), len(p.Timed))
	}
	type key struct {
		iface string
		hash  ast.Hash
	}
	seen := map[key]bool{}
	col := 0
	for _, idx := range [][]int{p.Warm, p.Timed} {
		for _, i := range idx {
			st := &p.States[i]
			k := key{st.Iface, ast.HashOf(st.Query)}
			if seen[k] {
				t.Fatalf("state repeats: %s", ast.SQL(st.Query))
			}
			seen[k] = true
			execFull(t, sv, st)
		}
	}
	for _, i := range p.Timed {
		if p.States[i].Columnar {
			col++
		}
	}
	if share := 100 * float64(col) / float64(len(p.Timed)); math.Abs(share-70) > 1 {
		t.Errorf("columnar share of timed ops = %.1f%%, want 70 +- 1", share)
	}

	// The timed population is the same set for every run seed and every
	// warm-up length: only the order is seeded.
	q, err := MissPlan(sv, 6, 35, 200)
	if err != nil {
		t.Fatal(err)
	}
	set := func(p *ReadPlan) map[key]bool {
		m := map[key]bool{}
		for _, i := range p.Timed {
			m[key{p.States[i].Iface, ast.HashOf(p.States[i].Query)}] = true
		}
		return m
	}
	a, b := set(p), set(q)
	for k := range a {
		if !b[k] {
			t.Fatalf("timed populations of two seeds differ")
		}
	}
	same := true
	for i := range p.Timed {
		if ast.HashOf(p.States[p.Timed[i]].Query) != ast.HashOf(q.States[q.Timed[i]].Query) {
			same = false
		}
	}
	if same {
		t.Error("two seeds issue the timed ops in the same order")
	}
}

func TestIngestPlanContinuesTheServersLog(t *testing.T) {
	p := NewIngestPlan(9, 50, 3, 8)
	log, _, err := ServeWorkload("sdss", 50+3*8, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	// pi-serve -workloads sdss -n 50 -seed 9 mines the first 50 entries
	// of the same client; the batches are entries 50.. of it.
	for i, b := range p.Batches {
		for j, e := range b {
			if want := log.Entries[50+i*8+j].SQL; e.SQL != want {
				t.Fatalf("batch %d entry %d = %q, want %q", i, j, e.SQL, want)
			}
		}
	}
}

func TestFleetPlanShape(t *testing.T) {
	ops := FleetPlan(4, 6)
	count := map[string]int{}
	for _, op := range ops {
		count[op.Kind]++
		if op.Kind == KindAppend {
			if len(op.Rows) != RowsPerAppend || len(op.Rows[0]) != 16 {
				t.Fatalf("append carries %d rows x %d cols", len(op.Rows), len(op.Rows[0]))
			}
		}
	}
	if count[KindAppend] != 24 || count[KindQuery] != 6 || count[KindMutate] != 3 {
		t.Fatalf("6 cycles gave %v", count)
	}
	// Appended rows must be accepted by the table the server hosts.
	db := engine.OnTimeDB(1)
	tab, _ := db.Table("ontime")
	if len(ops[0].Rows[0]) != tab.NumCols() {
		t.Fatalf("row has %d values, ontime has %d columns", len(ops[0].Rows[0]), tab.NumCols())
	}
}
