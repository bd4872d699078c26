package main

import (
	"encoding/json"
	"hash/fnv"
	"strconv"
	"time"

	"repro/bench/gen"
	"repro/bench/stats"
	"repro/bench/sut"
	"repro/bench/trace"
	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/engine"
	"repro/pi/client"
)

// serveRead is the two read workloads against one pi-serve hosting
// olap, adhoc and sdss: an op is one client.Query with limit 200.
//
// serve_hit asks for one of 64 states per interface (zipf 1.1); the
// working set fits the 256-entry result and plan caches, every timed op
// answers cache "hit", and the engine does nothing — what is measured
// is the transport: server decode/encode/gzip, net/http, pi/client.
//
// serve_miss asks for a distinct state every op, so each one binds,
// compiles, executes and serialises; 70% of the ops are columnar-
// eligible and 30% run the row interpreter. op_p50_us sits inside the
// columnar mode, while ops_per_s and cpu_us_per_op are ~90% row-
// interpreter time: the two executors are gated by different metrics
// of one workload.
type serveRead struct {
	miss bool
	sv   *gen.Serving
	plan *gen.ReadPlan
	// want memoizes the oracle's in-process answers by state: the row
	// interpreter needs ~20 ms per state on 20k rows, and repetitions
	// (and, on serve_hit, ops) ask for the same states again.
	want map[int]answer
}

var serveIfaces = []string{"olap", "adhoc", "sdss"}

const queryLimit = 200

func (w *serveRead) name() string {
	if w.miss {
		return "serve_miss"
	}
	return "serve_hit"
}

func (w *serveRead) prepare(e *env) (err error) {
	w.sv, err = gen.NewServing(serveIfaces, e.sz.serveN, e.sz.serveRows, gen.ContentSeed)
	if err != nil {
		return err
	}
	w.want = map[int]answer{}
	if w.miss {
		w.plan, err = gen.MissPlan(w.sv, e.seed, e.sz.missWarm, e.sz.missOps)
	} else {
		w.plan, err = gen.HitPlan(w.sv, e.seed, e.sz.hitWarm, e.sz.hitOps)
	}
	return err
}

// answer is what the oracle compares: the size of the full result and
// a checksum of the returned page.
type answer struct {
	rowCount int
	sum      uint64
}

// sampled is one server answer kept for the oracle.
type sampled struct {
	state int
	answer
}

func checksum(rows [][]any) uint64 {
	h := fnv.New64a()
	_ = json.NewEncoder(h).Encode(rows) // JSON scalars only: cannot fail
	return h.Sum64()
}

// expected computes the answer in-process: api.Bind + engine.Exec (the
// row interpreter, whichever path the server took) over the identically
// seeded dataset, projected to JSON scalars the way the API does.
func (w *serveRead) expected(state int) (answer, error) {
	if a, ok := w.want[state]; ok {
		return a, nil
	}
	st := &w.plan.States[state]
	h := w.sv.Get(st.Iface)
	q, err := api.Bind(h.Iface, st.Bindings)
	if err != nil {
		return answer{}, err
	}
	res, err := engine.Exec(h.DB, q)
	if err != nil {
		return answer{}, err
	}
	page := res.Rows[:min(queryLimit, len(res.Rows))]
	rows := make([][]any, 0, len(page))
	for _, row := range page {
		jr := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case engine.KindNumber:
				jr[j] = v.Num
			case engine.KindString:
				jr[j] = v.Str
			case engine.KindBool:
				jr[j] = v.Bool
			}
		}
		rows = append(rows, jr)
	}
	a := answer{len(res.Rows), checksum(rows)}
	w.want[state] = a
	return a, nil
}

func (w *serveRead) drive(e *env, r *rep, c *client.Client, procs []*sut.Proc, t0 time.Time, onOp func(i int) func()) error {
	for _, s := range w.plan.Warm {
		st := &w.plan.States[s]
		if _, err := c.Query(e.ctx, st.Iface, st.Request(queryLimit)); err != nil {
			r.fail("warm-up query: %v", err)
		}
	}
	r.setup = time.Since(t0)
	if r.failed > 0 {
		return failedErr("warm-up", r)
	}
	var keep []sampled
	var resHits, planHits int
	want := "hit"
	if w.miss {
		want = "miss"
	}
	err := r.measure(procs, len(w.plan.Timed), func(i int) {
		done := onOp(i)
		st := &w.plan.States[w.plan.Timed[i]]
		resp, err := c.Query(e.ctx, st.Iface, st.Request(queryLimit))
		done()
		if err != nil {
			r.fail("query op %d (%s): %v", i, ast.SQL(st.Query), err)
			return
		}
		if resp.Cache == "hit" {
			resHits++
		}
		if resp.Plan == "hit" {
			planHits++
		}
		if resp.Cache != want || resp.Plan != want {
			r.fail("query op %d answered cache %q plan %q, want %q", i, resp.Cache, resp.Plan, want)
		}
		if i%e.sz.oracleEvery == 0 {
			keep = append(keep, sampled{w.plan.Timed[i], answer{resp.RowCount, checksum(resp.Rows)}})
		}
	})
	if err != nil {
		return err
	}
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts["api.result_cache_hit_ratio"] = float64(resHits) / float64(len(w.plan.Timed))
	r.counts["api.plan_cache_hit_ratio"] = float64(planHits) / float64(len(w.plan.Timed))
	for _, k := range keep {
		want, err := w.expected(k.state)
		if err != nil || want != k.answer {
			r.fail("%s: server answered %d rows (page %x), in-process %d rows (page %x), err %v",
				ast.SQL(w.plan.States[k.state].Query), k.rowCount, k.sum, want.rowCount, want.sum, err)
		}
	}
	return nil
}

func (w *serveRead) run(e *env, _ bool) (*rep, error) {
	r := &rep{}
	t0 := time.Now()
	s, err := e.startServer("pi-serve", "pi-serve", func(string) []string {
		return []string{"-workloads", "olap,adhoc,sdss", "-n", strconv.Itoa(e.sz.serveN),
			"-rows", strconv.Itoa(e.sz.serveRows), "-seed", strconv.Itoa(gen.ContentSeed)}
	})
	if err != nil {
		return nil, err
	}
	defer s.proc.Kill()
	if err := e.waitHealthy(s, nil); err != nil {
		return nil, err
	}
	c, err := newClient(s.url, "")
	if err != nil {
		return nil, err
	}
	if err := w.drive(e, r, c, []*sut.Proc{s.proc}, t0, noSpan); err != nil {
		return nil, err
	}
	if w.miss {
		r.kinds = make([]string, len(w.plan.Timed))
		for i, s := range w.plan.Timed {
			r.kinds[i] = "row"
			if w.plan.States[s].Columnar {
				r.kinds[i] = "columnar"
			}
		}
	}
	return r, nil
}

func (w *serveRead) finish(*env, []*rep) error { return nil }

func (w *serveRead) layers(e *env) (map[string]float64, float64, error) {
	rec := &trace.Recorder{}
	t0 := time.Now()
	p, err := trace.StartServe(rec, trace.ServeOptions{
		Label: "a", Workloads: serveIfaces, N: e.sz.serveN, Rows: e.sz.serveRows,
		Seed: gen.ContentSeed, Batch: 8,
	})
	if err != nil {
		return nil, 0, err
	}
	defer p.Close()
	c, err := newClient(p.URL, "")
	if err != nil {
		return nil, 0, err
	}
	r := &rep{}
	err = w.drive(e, r, c, nil, t0, clientSpan(rec))
	if err != nil {
		return nil, 0, err
	}
	if r.failed > 0 {
		return nil, 0, failedErr(w.name()+" traced", r)
	}
	defs := []layerDef{
		{"client.self_us", []string{"client"}},
		{"server.self_us", []string{"server:a"}},
		{"api.self_us", []string{"servicer:a"}},
	}
	if !w.miss {
		// Every op is a result-cache hit: the engine is never entered.
		layer, p50 := chainLayers(rec, r, nil, defs)
		return layer, p50, nil
	}

	// The engine cannot be intercepted from outside: run each op's bound
	// query again, alone, through the executor the service would pick,
	// and hang the time under the op's servicer span.
	var colUS, rowUS []float64
	columnar := func(i int) bool { return w.plan.States[w.plan.Timed[i]].Columnar }
	for i, s := range w.plan.Timed {
		st := &w.plan.States[s]
		db := w.sv.Get(st.Iface).DB
		plan, ok := engine.CompileColumnar(st.Query) // planning is api's work, not the engine's
		t := time.Now()
		if ok {
			_, _, err = engine.ExecColumnar(db, plan)
		} else {
			_, err = engine.Exec(db, st.Query)
		}
		d := time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		rec.Inject(i+1, "servicer:a", "engine.exec", d)
		if columnar(i) {
			colUS = append(colUS, micros(d))
		} else {
			rowUS = append(rowUS, micros(d))
		}
	}
	// op_p50_us sits in the columnar mode, so the layer chain is
	// reported over the columnar ops.
	layer, p50 := chainLayers(rec, r, columnar, append(defs, layerDef{"engine.exec_us_columnar", []string{"engine.exec"}}))
	layer["engine.exec_us_row"] = stats.Median(rowUS)
	layer["engine.columnar_share"] = float64(len(colUS)) / float64(len(w.plan.Timed))
	return layer, p50, nil
}
