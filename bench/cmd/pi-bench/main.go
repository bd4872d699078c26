// Command pi-bench is the repository's one gating benchmark: it builds
// pi, pi-serve and pi-router, runs named workloads against those real
// binaries from a single closed-loop client, checks every answer, and
// prints five end-to-end metrics per workload; with -trace 1 it prints
// the per-layer metrics instead. See bench/README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload serve_hit --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh                 # every workload, repetitions interleaved
//	bash bench/run.sh -aa             # the suite twice, compared against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/bench/stats"
	"repro/bench/sut"
)

// metricDef is a metric name with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the five end-to-end metrics, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"op_p50_us", "us"}, {"ops_per_s", "1/s"}, {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MiB"},
}

// perLayer are the per-layer metrics of the -trace 1 run. A metric of a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"qlog.read_ms", "ms"}, {"sqlparser.parse_ms", "ms"}, {"interaction.mine_ms", "ms"},
	{"mapper.map_ms", "ms"}, {"htmlgen.compile_ms", "ms"}, {"treediff.compare_us_per_pair", "us"},
	{"interaction.comparisons", "count"}, {"interaction.edges", "count"}, {"interaction.diff_records", "count"},
	{"mapper.widgets", "count"}, {"mapper.cost", "count"},
	{"core.alloc_mb_per_op", "MiB"}, {"core.allocs_per_op", "count"},
	{"core.append_ms_first", "ms"}, {"core.append_ms_last", "ms"},
	{"ingest.full_remines", "count"}, {"ingest.flushes", "count"}, {"ingest.self_us", "us"}, {"ingest.restore_ms", "ms"},
	{"client.self_us", "us"}, {"server.self_us", "us"}, {"server.resp_bytes_p50", "B"},
	{"api.self_us", "us"}, {"api.result_cache_hit_ratio", "ratio"}, {"api.plan_cache_hit_ratio", "ratio"},
	{"engine.exec_us_columnar", "us"}, {"engine.exec_us_row", "us"}, {"engine.columnar_share", "ratio"},
	{"shard.router_self_us", "us"}, {"shard.node_self_us", "us"},
	{"replica.ship_us", "us"}, {"replica.events_per_op", "count"},
	{"wal.fsync_us", "us"}, {"wal.fsyncs_per_op", "count"}, {"wal.bytes_per_user_byte", "ratio"},
	{"store.append_us", "us"}, {"engine.eval_dml_us", "us"}, {"engine.post_publish_query_us", "us"},
	{"client.op_p90_us", "us"}, {"client.op_p99_us", "us"}, {"client.op_p999_us", "us"}, {"client.op_n", "count"},
	{"client.append_p50_us", "us"}, {"client.mutate_p50_us", "us"}, {"client.query_p50_us", "us"},
	{"client.rep_spread", "ratio"},
	{"trace.op_p50_us", "us"}, {"trace.overhead_frac", "ratio"}, {"trace.layer_sum_frac", "ratio"},
}

// workloads returns fresh instances in canonical order.
func workloads() []workload {
	return []workload{&mineBatch{}, &ingestLive{}, &serveRead{}, &serveRead{miss: true}, &fleetWrite{}}
}

// buildDir is where everything the benchmark writes goes; the driver
// points CARGO_TARGET_DIR at the same name, and .gitignore lists it.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "run one workload (mine_batch, ingest_live, serve_hit, serve_miss, fleet_write); empty runs all, interleaved")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Int("seconds", nominalSeconds, "nominal timed seconds per run; scales the (count-based) timed op counts")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics (a traced, shorter run) instead of the end-to-end ones")
	aa := flag.Bool("aa", false, "run the whole suite twice and compare the two against the bounds in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *traceFlag == 1 && (*name == "" || *aa) {
		fmt.Fprintln(os.Stderr, "pi-bench: -trace 1 prints one workload's per-layer metrics: name it with -workload")
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, *seconds, *traceFlag == 1, *aa))
}

func run(name string, seed int64, seconds int, traced, aa bool) int {
	root, err := os.Getwd()
	if err != nil {
		return fatal(err)
	}
	bin, err := buildSUT(root)
	if err != nil {
		return fatal(err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	group := sut.NewGroup(tmp)
	defer group.KillAll()
	go func() { // on ^C, do not wait for the main goroutine to notice before reaping
		<-ctx.Done()
		group.KillAll()
	}()
	newEnv := func(frac float64) *env {
		return &env{ctx: ctx, bin: bin, tmp: tmp, seed: seed, sz: sizesFor(seconds, frac), group: group}
	}

	switch {
	case aa:
		return runAA(newEnv(1), root)
	case name == "":
		res, err := suites(newEnv(1), 1)
		if err != nil {
			return fail(group, err)
		}
		for _, r := range res[0] {
			r.table(os.Stdout)
		}
		return exitCode(res[0])
	}
	var w workload
	for _, c := range workloads() {
		if c.name() == name {
			w = c
		}
	}
	if w == nil {
		return fatal(fmt.Errorf("unknown workload %q", name))
	}
	var res *result
	if traced {
		res, err = runLayers(newEnv(1.0/3), w)
	} else {
		res, err = runOne(newEnv(1), w)
	}
	if err != nil {
		return fail(group, err)
	}
	if err := res.print(os.Stdout); err != nil {
		return fail(group, err)
	}
	if res.failed > 0 {
		fmt.Fprint(os.Stderr, group.Logs(4096))
	}
	return exitCode([]*result{res})
}

// buildSUT builds the three binaries of the program from the checkout's
// source into .bench_build/bin (untimed; go's build cache makes every
// run after the first a no-op check).
func buildSUT(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("run pi-bench from the repository root: %w", err)
	}
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/pi", "./cmd/pi-serve", "./cmd/pi-router")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build pi, pi-serve, pi-router: %w", err)
	}
	return bin, nil
}

// result is one workload's outcome in the shape the contract prints.
type result struct {
	workload  string
	defs      []metricDef
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
	repP50s   []float64 // op_p50_us of each repetition
	spread    float64   // client.rep_spread: (max - min) / median of repP50s
}

// table writes the metrics by name with their units, and the failure
// notes and noise warning to standard error.
func (r *result) table(out *os.File) {
	for _, d := range r.defs {
		fmt.Fprintf(out, "%-14s %-32s %16.4f %s\n", r.workload, d.name, r.metrics[d.name], d.unit)
	}
	fmt.Fprintf(out, "%-14s ops attempted %d, failed %d; op_p50_us per repetition %.1f\n", r.workload, r.attempted, r.failed, r.repP50s)
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "%s: FAILED OP: %s\n", r.workload, n)
	}
	if r.spread > 0.15 {
		fmt.Fprintf(os.Stderr, "%s: warning: op_p50_us of the %d repetitions spreads %.0f%% of their median\n", r.workload, reps, 100*r.spread)
	}
	if r.workload == "fleet_write" {
		fmt.Fprintln(out, "fleet_write    note: WAL flush policy is fsync before every ack (-wal-sync 0); fsync latency is this sandbox's disk, not a device's")
	}
}

// print writes the table, then the one JSON object the driver reads as
// the last line.
func (r *result) print(out *os.File) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]mv{}}
	for _, d := range r.defs {
		line.Metrics[d.name] = mv{r.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line) // fails on a NaN or an infinite value
	if err != nil {
		return fmt.Errorf("%s: result line: %w", r.workload, err)
	}
	r.table(out)
	fmt.Fprintln(out, string(b))
	return nil
}

// collect folds a workload's repetitions into a result. Every
// repetition timed at least one op (checkRep), so a miss of any kind —
// a failed op, an oracle or a post-condition — leaves failed > 0.
func collect(w workload, rs []*rep) *result {
	res := &result{workload: w.name(), defs: endToEnd, metrics: e2e(rs), repP50s: repP50s(rs)}
	res.spread = stats.Spread(res.repP50s)
	for _, r := range rs {
		res.attempted += r.attempted
		res.failed += r.failed
		res.notes = append(res.notes, r.notes...)
	}
	// One op can miss twice (its own check and the oracle's); the count
	// reported is of ops, so it cannot exceed the ops attempted.
	res.failed = min(res.failed, res.attempted)
	return res
}

// checkRep refuses a repetition without timed ops: its medians would be
// taken over nothing, and its failures could not be counted against
// anything. (A failed warm-up aborts the run before this.)
func checkRep(w workload, r *rep) error {
	if r.attempted < 1 || len(r.lat) != r.attempted || r.wall <= 0 {
		return fmt.Errorf("%s: repetition timed %d ops of %d attempted in %v", w.name(), len(r.lat), r.attempted, r.wall)
	}
	return nil
}

// runReps runs R repetitions of one workload, each a fresh boot.
func runReps(e *env, w workload) ([]*rep, error) {
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	var rs []*rep
	for i := 0; i < reps; i++ {
		r, err := w.run(e, i == reps-1)
		if err == nil {
			err = checkRep(w, r)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name(), i+1, err)
		}
		rs = append(rs, r)
	}
	if err := w.finish(e, rs); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name(), err)
	}
	return rs, nil
}

func runOne(e *env, w workload) (*result, error) {
	rs, err := runReps(e, w)
	if err != nil {
		return nil, err
	}
	return collect(w, rs), nil
}

// suites runs every workload n times over ("sides"), repetitions
// interleaved round-robin — side 1's w1..w5, side 2's w1..w5, then the
// next repetition of each — so a slow minute of the host is spread over
// all workloads and all sides instead of landing on one. One side is
// the plain all-workloads run; two are the A/A self-check.
func suites(e *env, n int) ([][]*result, error) {
	sides := make([][]workload, n)
	rs := make([][][]*rep, n)
	for s := range sides {
		sides[s] = workloads()
		rs[s] = make([][]*rep, len(sides[s]))
		for _, w := range sides[s] {
			if err := w.prepare(e); err != nil {
				return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
			}
		}
	}
	for i := 0; i < reps; i++ {
		for s := range sides {
			for k, w := range sides[s] {
				r, err := w.run(e, i == reps-1)
				if err == nil {
					err = checkRep(w, r)
				}
				if err != nil {
					return nil, fmt.Errorf("%s: repetition %d: %w", w.name(), i+1, err)
				}
				rs[s][k] = append(rs[s][k], r)
			}
		}
	}
	out := make([][]*result, n)
	for s := range sides {
		for k, w := range sides[s] {
			if err := w.finish(e, rs[s][k]); err != nil {
				return nil, fmt.Errorf("%s: oracle: %w", w.name(), err)
			}
			out[s] = append(out[s], collect(w, rs[s][k]))
		}
	}
	return out, nil
}

func exitCode(res []*result) int {
	for _, r := range res {
		if r.failed > 0 {
			return 1
		}
	}
	return 0
}

// runLayers is the -trace 1 run at a third of the ops: R untraced
// repetitions against the real binaries for the client-side tails and
// the scraped counters, then the workload's traced in-process
// repetition and isolated timings for the per-layer times.
func runLayers(e *env, w workload) (*result, error) {
	rs, err := runReps(e, w)
	if err != nil {
		return nil, err
	}
	res := collect(w, rs)
	m := map[string]float64{}
	untracedP50 := res.metrics["op_p50_us"]

	// Tails are pooled over the repetitions and reported, not gated: on
	// two shared cores they do not repeat within a tenth.
	var pooled []float64
	byKind := map[string][]float64{}
	for _, r := range rs {
		pooled = append(pooled, r.lat...)
		for i, k := range r.kinds {
			byKind[k] = append(byKind[k], r.lat[i])
		}
		for k, v := range r.counts { // exact counters: the last repetition's reading
			m[k] = v
		}
	}
	m["client.op_n"] = float64(len(pooled))
	for _, p := range []struct {
		name string
		p    float64
	}{{"client.op_p90_us", 90}, {"client.op_p99_us", 99}, {"client.op_p999_us", 99.9}} {
		m[p.name], _ = stats.Percentile(pooled, p.p) // 0 when fewer than 10 samples lie beyond it
	}
	for _, k := range []string{"append", "mutate", "query"} {
		m["client."+k+"_p50_us"] = stats.Median(byKind[k])
	}
	m["client.rep_spread"] = res.spread

	layer, tracedP50, err := w.layers(e)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name(), err)
	}
	for k, v := range layer {
		m[k] = v
	}
	m["trace.op_p50_us"] = tracedP50
	if untracedP50 > 0 {
		m["trace.overhead_frac"] = (tracedP50 - untracedP50) / untracedP50
	}
	if f := m["trace.layer_sum_frac"]; f < 0.9 || f > 1.1 {
		fmt.Fprintf(os.Stderr, "%s: warning: layer self times sum to %.0f%% of the traced op_p50_us\n", w.name(), 100*f)
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for k := range m {
		if !known[k] {
			return nil, fmt.Errorf("%s: metric %q is not in the per-layer list", w.name(), k)
		}
	}
	res.defs, res.metrics = perLayer, m
	return res, nil
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "pi-bench:", err)
	return 1
}

// fail reports an aborted run with the tail of every child's stderr.
func fail(g *sut.Group, err error) int {
	g.KillAll()
	fmt.Fprint(os.Stderr, g.Logs(4096))
	return fatal(err)
}
