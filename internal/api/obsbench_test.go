package api

import (
	"context"
	"sort"
	"testing"
	"time"
)

// newBenchService builds the cached-plan benchmark fixture with
// metrics either live (the shipped configuration) or off (the clean
// baseline the overhead comparison needs) and returns the ID it hosts
// the interface under. The baseline drops its hosted metrics after Add,
// so its queries do no per-query metric work; it is hosted under its
// own ID because Add registers scrape closures keyed by ID with the
// process metric registry, and sharing "olap" would replace the live
// interface's.
func newBenchService(b testing.TB, metrics bool) (*Service, string, QueryRequest) {
	iface, db := minedOLAP(b)
	reg := NewRegistry()
	id := "olap"
	if !metrics {
		id = "olap-nometrics"
	}
	h, err := reg.Add(id, "OnTime OLAP dashboard", iface, db)
	if err != nil {
		b.Fatal(err)
	}
	if !metrics {
		h.mx = nil
	}
	svc := NewService(reg)
	w := sliderWidget(b, h.Iface())
	lo, _ := w.Domain.Range()
	req := QueryRequest{Widgets: []WidgetBinding{{Path: w.Path.String(), Number: &lo}}}
	// Warm the plan cache; every timed iteration must be a hit.
	if _, err := svc.Query(id, req); err != nil {
		b.Fatal(err)
	}
	if resp, err := svc.Query(id, req); err != nil || resp.Plan != "hit" {
		b.Fatalf("warmup did not cache the plan: %+v (%v)", resp, err)
	}
	return svc, id, req
}

// BenchmarkQueryPlanCachedNoMetrics is BenchmarkQueryPlanCached with
// instrumentation compiled out of the hosted interface — the "metrics
// off" baseline scripts/bench_json.sh folds into BENCH_obs.json to
// compute the instrumentation overhead ratio.
func BenchmarkQueryPlanCachedNoMetrics(b *testing.B) {
	svc, id, req := newBenchService(b, false)
	var resp QueryResponse
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := svc.QueryIntoCtx(context.Background(), id, req, &resp); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p int) float64 {
		idx := len(lat) * p / 100
		if idx >= len(lat) {
			idx = len(lat) - 1
		}
		return float64(lat[idx].Nanoseconds())
	}
	b.ReportMetric(pct(50), "p50_ns")
	b.ReportMetric(pct(99), "p99_ns")
}
