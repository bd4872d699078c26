package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the harness reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runAA is the A/A self-check: the whole suite twice on the same tree,
// the two runs' repetitions alternating the way a parent-vs-change
// comparison alternates its sides. It prints, per (workload, metric),
// both medians, their relative difference and the metric's bound, as a
// markdown table, and fails when any difference exceeds its bound — a
// benchmark that cannot agree with itself cannot gate anything.
func runAA(e *env, root string) int {
	mf, err := readManifest(root)
	if err != nil {
		return fatal(err)
	}
	both, err := suites(e, 2)
	if err != nil {
		return fail(e.group, err)
	}
	a, b := both[0], both[1]
	fmt.Println("| workload | metric | unit | run A | run B | delta | bound | ok |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---|")
	code := exitCode(a) | exitCode(b)
	for i := range a {
		for _, m := range mf.EndToEnd {
			va, vb := a[i].metrics[m.Name], b[i].metrics[m.Name]
			d := (vb - va) / va
			ok := "yes"
			if math.Abs(d) > m.Bound {
				ok, code = "NO", 1
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %+.1f%% | %.0f%% | %s |\n",
				a[i].workload, m.Name, m.Unit, va, vb, 100*d, 100*m.Bound, ok)
		}
	}
	fmt.Println()
	fmt.Println("| workload | client.rep_spread A | client.rep_spread B |")
	fmt.Println("|---|---:|---:|")
	for i := range a {
		fmt.Printf("| %s | %.3f | %.3f |\n", a[i].workload, a[i].spread, b[i].spread)
	}
	return code
}
