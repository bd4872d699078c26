package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/bench/stats"
	"repro/bench/sut"
	"repro/pi/client"
)

// reps is R: every workload runs this many repetitions, each a fresh
// boot of the program, and reports the median of the per-repetition
// values. One boot cannot repeat within a tenth on this box (the same
// binary's hit-path p50 moves 267->330 us between boots).
const reps = 3

// nominalSeconds is the -seconds value the op counts below are sized
// for: about 4 s of timed ops per repetition on the reference box.
const nominalSeconds = 12

// sizes are the op counts and dataset sizes of one run. Work is
// count-based and seeded, never time-boxed, so a run issues the same
// op sequence every time; -seconds scales the timed counts.
type sizes struct {
	mineEntries, mineWarm, mineOps int

	ingestBase, ingestPer, ingestWarm, ingestOps int

	serveN, serveRows                  int
	hitWarm, hitOps, missWarm, missOps int

	fleetN, fleetRows, fleetWarm, fleetCycles int

	oracleEvery  int // serve_*: every n-th op is checked against the in-process answer
	expressCheck int // mine_batch: training-log queries the mined interface must express
}

// sizesFor scales the timed op counts by seconds/nominalSeconds and
// by frac (1/3 for the per-layer run). Warm-up counts and dataset
// sizes do not scale: they define the state the timed ops run in.
func sizesFor(seconds int, frac float64) sizes {
	f := frac * float64(seconds) / nominalSeconds
	n := func(full int) int { return max(1, int(math.Round(float64(full)*f))) }
	return sizes{
		mineEntries: 10000, mineWarm: 1, mineOps: n(6),
		ingestBase: 2000, ingestPer: 8, ingestWarm: 50, ingestOps: n(110),
		serveN: 1000, serveRows: 20000,
		hitWarm: 1200, hitOps: n(7500), missWarm: 60, missOps: n(300),
		fleetN: 500, fleetRows: 20000, fleetWarm: 25, fleetCycles: n(80),
		oracleEvery: 20, expressCheck: 1000,
	}
}

// env is what every workload needs to run.
type env struct {
	ctx   context.Context
	bin   string // directory holding pi, pi-serve, pi-router
	tmp   string // state directory of this run; everything is written below it
	seed  int64
	sz    sizes
	group *sut.Group
	nrep  int // repetitions started so far, for unique directory names
}

// repDir makes a fresh directory for one repetition's state.
func (e *env) repDir(workload string) (string, error) {
	e.nrep++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%02d", workload, e.nrep))
	return dir, os.MkdirAll(dir, 0o755)
}

// rep is what one repetition measured.
type rep struct {
	setup     time.Duration
	lat       []float64 // client-side latency of each timed op, us, in issue order
	kinds     []string  // op kind per timed op; nil when the workload has one kind
	wall      time.Duration
	cpu       time.Duration // user+sys of all SUT processes over the timed phase
	peakRSS   int64         // bytes; sum over SUT processes (mine_batch: max over ops)
	attempted int
	failed    int
	counts    map[string]float64 // counters scraped or read off responses, per repetition
	notes     []string           // why ops failed, for the failure report
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// workload is one named traffic mix. prepare derives the seeded inputs
// once per run (harness work, outside setup_s); run is one repetition
// against real child processes (final marks the last one, which may
// append post-checks that need the fleet still up); finish runs once
// after the last repetition (oracles over the whole run); layers is
// the per-layer run: an in-process traced repetition plus isolated
// timings.
type workload interface {
	name() string
	prepare(e *env) error
	run(e *env, final bool) (*rep, error)
	finish(e *env, rs []*rep) error
	layers(e *env) (layer map[string]float64, tracedP50 float64, err error)
}

// micros and millis are a duration as the metrics report it.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeOps issues n ops back to back from this goroutine (the closed
// loop: the next op is sent only after the previous one completed) and
// returns each op's latency in us and the wall time of the whole phase.
func timeOps(n int, op func(i int)) (lat []float64, wall time.Duration) {
	lat = make([]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		op(i)
		lat[i] = micros(time.Since(t))
	}
	return lat, time.Since(start)
}

// procsCPU sums the CPU time consumed so far by the SUT's processes.
func procsCPU(procs []*sut.Proc) (time.Duration, error) {
	var sum time.Duration
	for _, p := range procs {
		c, err := p.CPU()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// procsPeakRSS sums the peak resident sets of the SUT's processes.
func procsPeakRSS(procs []*sut.Proc) (int64, error) {
	var sum int64
	for _, p := range procs {
		b, err := p.PeakRSS()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// measure wraps a timed phase with the SUT's CPU and RSS accounting.
func (r *rep) measure(procs []*sut.Proc, n int, op func(i int)) error {
	cpu0, err := procsCPU(procs)
	if err != nil {
		return err
	}
	r.lat, r.wall = timeOps(n, op)
	cpu1, err := procsCPU(procs)
	if err != nil {
		return err
	}
	r.cpu = cpu1 - cpu0
	r.peakRSS, err = procsPeakRSS(procs)
	r.attempted = n
	return err
}

// newClient returns the benchmark's single closed-loop client: one
// goroutine, one keep-alive connection, no retries (a retried op would
// hide a failure and distort its latency).
func newClient(base, token string) (*client.Client, error) {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return client.New(base,
		client.WithToken(token),
		client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 60 * time.Second}),
	)
}

// e2e reduces the repetitions of one workload to the five end-to-end
// metrics: each is the median of the per-repetition values.
func e2e(rs []*rep) map[string]float64 {
	var setup, p50, rate, cpu, rss []float64
	for _, r := range rs {
		setup = append(setup, r.setup.Seconds())
		p50 = append(p50, stats.Median(r.lat))
		rate = append(rate, float64(len(r.lat))/r.wall.Seconds())
		cpu = append(cpu, micros(r.cpu)/float64(len(r.lat)))
		rss = append(rss, float64(r.peakRSS)/(1<<20))
	}
	return map[string]float64{
		"setup_s":       stats.Median(setup),
		"op_p50_us":     stats.Median(p50),
		"ops_per_s":     stats.Median(rate),
		"cpu_us_per_op": stats.Median(cpu),
		"peak_rss_mb":   stats.Median(rss),
	}
}

// repP50s returns each repetition's op_p50_us.
func repP50s(rs []*rep) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = stats.Median(r.lat)
	}
	return out
}
