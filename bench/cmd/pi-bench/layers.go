package main

import (
	"fmt"
	"strings"

	"repro/bench/stats"
	"repro/bench/trace"
)

// layerDef names one per-layer self-time metric and the spans whose
// self times it sums.
type layerDef struct {
	metric string
	spans  []string
}

// chainLayers reduces a traced repetition to per-layer self times in
// us. For every op each metric sums the self time (span minus child
// spans) of its spans; the reported value is the median over the ops
// keep selects — the ops that define the workload's op_p50_us — or over
// all ops when keep is nil. Because self times telescope along the
// serial hop chain, the metrics sum to the client-side latency of the
// op; trace.layer_sum_frac reports how closely the medians do, against
// the median latency of the same ops. The second result is the traced
// repetition's op_p50_us over all ops.
func chainLayers(rec *trace.Recorder, r *rep, keep func(i int) bool, defs []layerDef) (map[string]float64, float64) {
	spans := rec.Spans()
	ops := trace.Summarize(spans)
	layer := map[string]float64{}
	var sum float64
	for _, d := range defs {
		var xs []float64
		for _, ot := range ops {
			if keep != nil && !keep(ot.Op-1) {
				continue
			}
			var self float64
			for _, name := range d.spans {
				self += micros(ot.Self[name])
			}
			xs = append(xs, self)
		}
		layer[d.metric] = stats.Median(xs)
		sum += layer[d.metric]
	}
	var kept []float64
	for i, l := range r.lat {
		if keep == nil || keep(i) {
			kept = append(kept, l)
		}
	}
	if m := stats.Median(kept); m > 0 {
		layer["trace.layer_sum_frac"] = sum / m
	}
	// Response size on the wire, as the client's edge server wrote it.
	var bytes []float64
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && spans[p].Parent < 0 && strings.HasPrefix(spans[i].Name, "server:") {
			bytes = append(bytes, float64(spans[i].Bytes))
		}
	}
	layer["server.resp_bytes_p50"] = stats.Median(bytes)
	return layer, stats.Median(r.lat)
}

// noSpan and clientSpan are the two ways a timed op is bracketed: not
// at all (untraced repetitions), or as op i+1 of rec with a root span
// named "client".
func noSpan(int) func() { return func() {} }

func clientSpan(rec *trace.Recorder) func(int) func() {
	return func(i int) func() {
		rec.BeginOp(i+1, "client")
		return rec.EndOp
	}
}

// failedErr reports a repetition that must not have failed ops.
func failedErr(what string, r *rep) error {
	return fmt.Errorf("%s: %d ops failed: %s", what, r.failed, strings.Join(r.notes, "; "))
}
