package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/bench/sut"
)

// smokeSizes is every workload at about 1/50 scale: enough to boot each
// fleet, issue every kind of op and run every oracle in a few seconds.
func smokeSizes() sizes {
	return sizes{
		mineEntries: 400, mineWarm: 1, mineOps: 1,
		ingestBase: 200, ingestPer: 8, ingestWarm: 2, ingestOps: 4,
		serveN: 150, serveRows: 500,
		hitWarm: 250, hitOps: 300, missWarm: 5, missOps: 20,
		fleetN: 100, fleetRows: 500, fleetWarm: 1, fleetCycles: 2,
		oracleEvery: 5, expressCheck: 100,
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs each workload end to end against the real binaries,
// untraced and traced, and checks that what the harness emits is what
// BENCHMARK.json declares: same workloads, same metric names and units.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mf, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildSUT(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	group := sut.NewGroup(tmp)
	defer group.KillAll()
	e := &env{ctx: context.Background(), bin: bin, tmp: tmp, seed: 2, sz: smokeSizes(), group: group}

	var wantE2E, wantLayer, wantWorkloads, gotWorkloads []string
	units := map[string]string{}
	for _, m := range mf.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range mf.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		units[m.Name] = m.Unit
	}
	for _, w := range mf.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if !slices.Equal(names(endToEnd), wantE2E) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", names(endToEnd), wantE2E)
	}
	if !slices.Equal(names(perLayer), wantLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", names(perLayer), wantLayer)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if units[d.name] != d.unit {
			t.Errorf("%s: unit %q, BENCHMARK.json declares %q", d.name, d.unit, units[d.name])
		}
	}

	for _, w := range workloads() {
		gotWorkloads = append(gotWorkloads, w.name())
		t.Run(w.name(), func(t *testing.T) {
			res, err := runOne(e, w)
			if err != nil {
				t.Fatalf("%v\n%s", err, group.Logs(2048))
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v\n%s", res.attempted, res.failed, res.notes, group.Logs(2048))
			}
			for _, d := range endToEnd {
				if v, ok := res.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.name, v)
				}
			}
			// The per-layer run re-prepares at its own scale and must emit
			// exactly the declared names (runLayers rejects unknown ones).
			res, err = runLayers(e, w)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, group.Logs(2048))
			}
			if res.failed != 0 {
				t.Fatalf("traced: failed %d: %v", res.failed, res.notes)
			}
			if res.metrics["trace.op_p50_us"] <= 0 || res.metrics["trace.layer_sum_frac"] <= 0 {
				t.Errorf("traced run reported no spans: %v", res.metrics)
			}
		})
	}
	if !slices.Equal(gotWorkloads, wantWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}

	// Hygiene: no child of the run is still alive.
	group.KillAll()
	entries, _ := os.ReadDir("/proc")
	for _, ent := range entries {
		exe, err := os.Readlink(filepath.Join("/proc", ent.Name(), "exe"))
		if err == nil && filepath.Dir(exe) == bin {
			t.Errorf("process %s (%s) survived the benchmark", ent.Name(), exe)
		}
	}
}

// A miss of any kind must reach the exit code: failed ops are counted
// against the ops attempted, a repetition without timed ops is refused,
// and a value JSON cannot carry is an error, not an empty last line.
func TestFailuresReachTheResult(t *testing.T) {
	w := &ingestLive{}
	ok := &rep{lat: []float64{1, 2}, attempted: 2, wall: time.Second}
	bad := &rep{lat: []float64{1, 2}, attempted: 2, wall: time.Second, failed: 3, notes: []string{"x"}}
	res := collect(w, []*rep{ok, bad, ok})
	if res.attempted != 6 || res.failed != 3 || exitCode([]*result{res}) == 0 {
		t.Errorf("attempted %d, failed %d, exit %d; want 6, 3, non-zero", res.attempted, res.failed, exitCode([]*result{res}))
	}
	if err := checkRep(w, &rep{failed: 1}); err == nil {
		t.Error("a repetition that timed nothing was accepted")
	}
	if err := checkRep(w, ok); err != nil {
		t.Error(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	nan := &result{workload: "w", defs: endToEnd[:1], metrics: map[string]float64{"setup_s": math.NaN()}, attempted: 1}
	if err := nan.print(devnull); err == nil {
		t.Error("a NaN metric was printed")
	}
}

// A SUT that refuses every request fails the run in the warm-up
// already; it must not come back as a repetition with nothing to count.
func TestRefusedWarmUpAbortsTheRun(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"code":"unavailable","error":"refused"}`, http.StatusServiceUnavailable)
	}))
	defer refuse.Close()
	e := &env{ctx: context.Background(), seed: 2, sz: smokeSizes()}
	c, err := newClient(refuse.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	w := &serveRead{}
	if err := w.prepare(e); err != nil {
		t.Fatal(err)
	}
	if err := w.drive(e, &rep{}, c, nil, time.Now(), noSpan); err == nil {
		t.Error("serve_hit: refused warm-up queries did not abort the repetition")
	}
	f := &fleetWrite{}
	if err := f.prepare(e); err != nil {
		t.Fatal(err)
	}
	if _, err := f.drive(e, &rep{}, c, nil, time.Now(), fleetHooks{onOp: noSpan}); err == nil {
		t.Error("fleet_write: refused warm-up ops did not abort the repetition")
	}
}
