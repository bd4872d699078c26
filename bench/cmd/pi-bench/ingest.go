package main

import (
	"strconv"
	"time"

	"repro/bench/gen"
	"repro/bench/stats"
	"repro/bench/sut"
	"repro/bench/trace"
	"repro/internal/api"
	"repro/internal/core"
	"repro/pi/client"
)

// ingestLive is the mining layer used incrementally: one pi-serve
// hosting a mined SDSS log; an op submits 8 new log entries with
// flush=true and waits for the ack that carries the new epoch
// (incremental re-mine + hot swap).
type ingestLive struct {
	plan *gen.IngestPlan
}

const ingestIface = "sdss"

func (w *ingestLive) name() string { return "ingest_live" }

func (w *ingestLive) prepare(e *env) error {
	w.plan = gen.NewIngestPlan(e.seed, e.sz.ingestBase, e.sz.ingestWarm+e.sz.ingestOps, e.sz.ingestPer)
	return nil
}

func (w *ingestLive) serveArgs(e *env) []string {
	return []string{"-workloads", ingestIface, "-n", strconv.Itoa(e.sz.ingestBase), "-rows", "2000",
		"-batch", strconv.Itoa(e.sz.ingestPer), "-seed", strconv.FormatInt(e.seed, 10)}
}

// drive is the workload proper, shared by the untraced and the traced
// repetition: warm up, then issue the timed ops through c, checking
// each ack. onOp brackets every timed op (the traced run opens its
// root span there).
func (w *ingestLive) drive(e *env, r *rep, c *client.Client, procs []*sut.Proc, t0 time.Time, onOp func(i int) func()) error {
	epoch, err := c.Epoch(e.ctx, ingestIface)
	if err != nil {
		return err
	}
	submit := func(i int) {
		ack, err := c.IngestLog(e.ctx, ingestIface, w.plan.Batches[i], true)
		switch {
		case err != nil:
			r.fail("ingest op %d: %v", i, err)
		case !ack.Flushed || ack.Accepted != e.sz.ingestPer || ack.Epoch != epoch+1:
			r.fail("ingest op %d: ack %+v, want %d accepted, flushed, epoch %d", i, *ack, e.sz.ingestPer, epoch+1)
			epoch = ack.Epoch
		default:
			epoch = ack.Epoch
		}
	}
	for i := 0; i < e.sz.ingestWarm; i++ {
		submit(i)
	}
	r.setup = time.Since(t0)
	if r.failed > 0 {
		return failedErr("warm-up", r)
	}
	err = r.measure(procs, e.sz.ingestOps, func(i int) {
		done := onOp(i)
		submit(e.sz.ingestWarm + i)
		done()
	})
	if err != nil {
		return err
	}
	// Post-condition: the epoch the acks carried is the epoch readers see.
	if got, err := c.Epoch(e.ctx, ingestIface); err != nil || got != epoch {
		r.fail("GET epoch = %d, %v; last ack carried %d", got, err, epoch)
	}
	return nil
}

func (w *ingestLive) run(e *env, _ bool) (*rep, error) {
	r := &rep{counts: map[string]float64{}}
	t0 := time.Now()
	s, err := e.startServer("pi-serve", "pi-serve", func(string) []string { return w.serveArgs(e) })
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
	// Exact counters, read off /healthz of the real process.
	pc, err := probeClient(s.url, "")
	if err != nil {
		return nil, err
	}
	h, err := pc.Health(e.ctx)
	if err != nil {
		return nil, err
	}
	if row := healthRow(h, ingestIface); row != nil && row.Ingest != nil {
		r.counts["ingest.full_remines"] = float64(row.Ingest.FullRemines)
		r.counts["ingest.flushes"] = float64(row.Ingest.Flushes)
		if row.Ingest.FullRemines != 0 {
			r.fail("%d full re-mines: the incremental path fell back", row.Ingest.FullRemines)
		}
	} else {
		r.fail("healthz has no ingest counters for %s", ingestIface)
	}
	return r, nil
}

func (w *ingestLive) finish(*env, []*rep) error { return nil }

func (w *ingestLive) layers(e *env) (map[string]float64, float64, error) {
	rec := &trace.Recorder{}
	t0 := time.Now()
	p, err := trace.StartServe(rec, trace.ServeOptions{
		Label: "a", Workloads: []string{ingestIface}, N: e.sz.ingestBase, Rows: 2000,
		Seed: e.seed, Batch: e.sz.ingestPer,
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
	layer, p50 := chainLayers(rec, r, nil, []layerDef{
		{"client.self_us", []string{"client"}},
		{"server.self_us", []string{"server:a"}},
		{"ingest.self_us", []string{"servicer:a"}},
	})

	// core.Miner.Append in isolation, at the first and the last tenth of
	// the sequence: their ratio is the growth with accumulated log size.
	first, last, err := w.appendIsolated(e)
	if err != nil {
		return nil, 0, err
	}
	layer["core.append_ms_first"], layer["core.append_ms_last"] = first, last
	return layer, p50, nil
}

// appendIsolated replays the whole batch sequence through a bare
// core.Miner and returns the median Append time (ms) over the first
// and over the last tenth of the timed ops.
func (w *ingestLive) appendIsolated(e *env) (first, last float64, err error) {
	base, _, err := gen.ServeWorkload(ingestIface, e.sz.ingestBase, 1, e.seed) // the log pi-serve mined at boot
	if err != nil {
		return 0, 0, err
	}
	m, err := core.NewMiner(base, core.DefaultLiveOptions())
	if err != nil {
		return 0, 0, err
	}
	var ms []float64
	for i, b := range w.plan.Batches {
		entries := (&api.LogRequest{Entries: b}).QlogEntries()
		t := time.Now()
		if _, _, err := m.Append(entries); err != nil {
			return 0, 0, err
		}
		if i >= e.sz.ingestWarm {
			ms = append(ms, millis(time.Since(t)))
		}
	}
	tenth := max(1, len(ms)/10)
	return stats.Median(ms[:tenth]), stats.Median(ms[len(ms)-tenth:]), nil
}
