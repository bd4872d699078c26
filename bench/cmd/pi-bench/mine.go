package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/bench/gen"
	"repro/bench/stats"
	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/interaction"
	"repro/internal/mapper"
	"repro/internal/qlog"
	"repro/internal/treediff"
	"repro/internal/widgets"
	"repro/pi"
)

// mineBatch is the paper's headline: a 10,000-query log to a compiled
// interface. One op is one run of the real pi binary, log.sql ->
// interface.html; a fresh process per op gives each a cold heap, so
// peak RSS is the pipeline's and not an accumulation.
type mineBatch struct {
	log *qlog.Log
	// Every op's output, for the oracle in finish: the "pi: N queries ->
	// W widgets (cost C)" line and a digest of the HTML.
	summaries []mineSummary
}

type mineSummary struct {
	queries, widgets int
	cost             string // as pi prints it: %.0f
	html             [sha256.Size]byte
}

// pageTitle is cmd/pi's default -title, which the ops do not override.
const pageTitle = "Precision Interface"

func (w *mineBatch) name() string { return "mine_batch" }

func (w *mineBatch) prepare(e *env) error {
	w.log = gen.MineLog(e.sz.mineEntries, e.seed)
	return nil
}

var mineLine = regexp.MustCompile(`pi: (\d+) queries -> (\d+) widgets \(cost (\d+)\)`)

// op runs pi once and returns its CPU time and peak RSS.
func (w *mineBatch) op(e *env, r *rep, logPath, out string) (cpu time.Duration, rss int64) {
	p, err := e.group.Start("pi", filepath.Join(e.bin, "pi"), "-o", out, logPath)
	if err != nil {
		r.fail("start pi: %v", err)
		return 0, 0
	}
	cpu, rss, err = p.Wait()
	if err != nil {
		r.fail("%v", err)
		return 0, 0
	}
	stderr, _ := os.ReadFile(p.Stderr)
	m := mineLine.FindSubmatch(stderr)
	html, rerr := os.ReadFile(out)
	if m == nil || rerr != nil || len(html) == 0 {
		r.fail("pi wrote no interface: stderr %q, read: %v", stderr, rerr)
		return cpu, rss
	}
	var s mineSummary
	s.queries, _ = strconv.Atoi(string(m[1]))
	s.widgets, _ = strconv.Atoi(string(m[2]))
	s.cost = string(m[3])
	s.html = sha256.Sum256(html)
	w.summaries = append(w.summaries, s)
	return cpu, rss
}

func (w *mineBatch) run(e *env, _ bool) (*rep, error) {
	dir, err := e.repDir(w.name())
	if err != nil {
		return nil, err
	}
	r := &rep{}
	t0 := time.Now()
	logPath := filepath.Join(dir, "log.sql")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := w.log.Write(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	for i := 0; i < e.sz.mineWarm; i++ {
		w.op(e, r, logPath, filepath.Join(dir, "warm.html"))
	}
	r.setup = time.Since(t0)
	if r.failed > 0 {
		return nil, failedErr("warm-up", r)
	}

	r.attempted = e.sz.mineOps
	r.lat, r.wall = timeOps(e.sz.mineOps, func(i int) {
		cpu, rss := w.op(e, r, logPath, filepath.Join(dir, fmt.Sprintf("interface-%d.html", i)))
		r.cpu += cpu
		r.peakRSS = max(r.peakRSS, rss)
	})
	return r, nil
}

// finish is the mine_batch oracle: every op wrote the same interface,
// it is the interface the library mines from the same log in-process
// (same widgets, cost and compiled page), and that interface expresses
// every query of a sample of its own training log.
func (w *mineBatch) finish(e *env, rs []*rep) error {
	last := rs[len(rs)-1]
	iface, err := core.Generate(w.log, core.DefaultOptions())
	if err != nil {
		return err
	}
	page, err := pi.CompileHTMLWithDeps(iface, pageTitle, pi.Dependencies(iface))
	if err != nil {
		return err
	}
	want := mineSummary{
		queries: w.log.Len(), widgets: len(iface.Widgets), cost: fmt.Sprintf("%.0f", iface.Cost()),
		html: sha256.Sum256([]byte(page)),
	}
	for i, s := range w.summaries {
		if s != want {
			last.fail("op %d: pi reported %d queries -> %d widgets (cost %s), page %x; the library mines %d -> %d (cost %s), page %x",
				i, s.queries, s.widgets, s.cost, s.html[:4], want.queries, want.widgets, want.cost, want.html[:4])
		}
	}
	asts, err := w.log.Parse()
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(e.seed))
	missed := 0
	for k := 0; k < min(e.sz.expressCheck, len(asts)); k++ {
		if !iface.CanExpress(asts[r.Intn(len(asts))]) {
			missed++
		}
	}
	if missed > 0 {
		last.fail("mined interface cannot express %d of %d sampled training queries", missed, e.sz.expressCheck)
	}
	return nil
}

// layers re-runs the pipeline in-process, one span per layer entry
// point, and times what a span cannot isolate directly.
func (w *mineBatch) layers(e *env) (map[string]float64, float64, error) {
	var text bytes.Buffer
	if err := w.log.Write(&text); err != nil {
		return nil, 0, err
	}
	dir, err := e.repDir(w.name() + "-traced")
	if err != nil {
		return nil, 0, err
	}
	rec := &trace.Recorder{}
	var iface *core.Interface
	var ms0, ms1 runtime.MemStats
	var allocMB, allocs []float64
	opLat := make([]float64, 0, e.sz.mineOps)
	for i := 1; i <= e.sz.mineOps; i++ {
		runtime.GC() // each real op starts on a cold heap
		t0 := time.Now()
		rec.BeginOp(i, "op")
		iface, err = tracedPipeline(rec, text.Bytes(), filepath.Join(dir, "interface.html"), &ms0, &ms1)
		rec.EndOp()
		if err != nil {
			return nil, 0, err
		}
		opLat = append(opLat, micros(time.Since(t0)))
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	layer := map[string]float64{}
	ops := trace.Summarize(rec.Spans())
	names := map[string]string{
		"qlog.read": "qlog.read_ms", "sqlparser.parse": "sqlparser.parse_ms",
		"interaction.mine": "interaction.mine_ms", "mapper.map": "mapper.map_ms",
		"htmlgen.compile": "htmlgen.compile_ms",
	}
	var sum float64
	for span, metric := range names {
		var xs []float64
		for _, ot := range ops {
			xs = append(xs, millis(ot.Self[span]))
		}
		layer[metric] = stats.Median(xs)
		sum += layer[metric] * 1e3
	}
	p50 := stats.Median(opLat)
	layer["trace.layer_sum_frac"] = sum / p50

	st := iface.Stats
	layer["interaction.comparisons"] = float64(st.Comparisons)
	layer["interaction.edges"] = float64(st.Edges)
	layer["interaction.diff_records"] = float64(st.DiffRecords)
	layer["mapper.widgets"] = float64(len(iface.Widgets))
	layer["mapper.cost"] = iface.Cost()
	layer["core.alloc_mb_per_op"] = stats.Median(allocMB)
	layer["core.allocs_per_op"] = stats.Median(allocs)

	// treediff.Compare over the window pairs the miner visits (window 2:
	// every query against its successor), in isolation.
	asts, err := w.log.Parse()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for i := 0; i+1 < len(asts); i++ {
		treediff.Compare(asts[i], asts[i+1])
	}
	layer["treediff.compare_us_per_pair"] = micros(time.Since(t0)) / float64(max(1, len(asts)-1))
	return layer, p50, nil
}

// tracedPipeline is cmd/pi's main, spelled out one layer call at a
// time so each can carry a span: read, parse, mine, map, compile.
func tracedPipeline(rec *trace.Recorder, text []byte, out string, ms0, ms1 *runtime.MemStats) (*core.Interface, error) {
	s := rec.Begin("qlog.read")
	log, err := qlog.Read(bytes.NewReader(text))
	rec.End(s)
	if err != nil {
		return nil, err
	}
	// The MemStats window is core.Generate's work: parse, mine, map.
	runtime.ReadMemStats(ms0)
	s = rec.Begin("sqlparser.parse")
	queries, err := log.Parse()
	rec.End(s)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	s = rec.Begin("interaction.mine")
	g, mstats := interaction.Mine(queries, opts.Miner)
	rec.End(s)
	s = rec.Begin("mapper.map")
	ws := mapper.Map(g, widgets.DefaultLibrary())
	rec.End(s)
	runtime.ReadMemStats(ms1)
	iface := &core.Interface{Widgets: ws, Initial: queries[0], Graph: g, Stats: core.Stats{
		Comparisons: mstats.Comparisons, Edges: mstats.Edges, DiffRecords: mstats.DiffRecords,
		WidgetCount: len(ws), Cost: mapper.TotalCost(ws),
	}}
	s = rec.Begin("htmlgen.compile")
	page, err := pi.CompileHTMLWithDeps(iface, pageTitle, pi.Dependencies(iface))
	rec.End(s)
	if err != nil {
		return nil, err
	}
	return iface, os.WriteFile(out, []byte(page), 0o644)
}
