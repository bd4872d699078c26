package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/bench/gen"
	"repro/bench/stats"
	"repro/bench/sut"
	"repro/bench/trace"
	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/pi/client"
)

// fleetWrite is durable replicated writes and the read that follows
// them: pi-router (-replicas 2) in front of shard A (olap, WAL with
// fsync before every ack) and an empty standby B that the router seeds
// as A's follower. A cycle is 4 acked appends of 16 rows, one
// read-your-writes query, and on every 2nd cycle one UPDATE, all
// through the router; an op is one request. 73% of the ops are appends,
// so op_p50_us is the acked-append latency, while ops_per_s is
// time-weighted toward the post-publish query (which rebuilds the
// columnar and index structures of the new epoch) and the mutation.
type fleetWrite struct {
	ops     []gen.FleetOp
	warmOps int
}

const (
	fleetIface = "olap"
	fleetTable = "ontime"
	fleetToken = "pi-bench-token"
)

func (w *fleetWrite) name() string { return "fleet_write" }

func (w *fleetWrite) prepare(e *env) error {
	w.ops = gen.FleetPlan(e.seed, e.sz.fleetWarm+e.sz.fleetCycles)
	w.warmOps = len(gen.FleetPlan(e.seed, e.sz.fleetWarm))
	return nil
}

// fleetState is what the acks so far imply.
type fleetState struct {
	rows  int    // table rows every acked append promised
	epoch uint64 // newest epoch an ack carried
}

// do issues one op and checks its post-condition.
func (w *fleetWrite) do(e *env, r *rep, c *client.Client, st *fleetState, op *gen.FleetOp) {
	switch op.Kind {
	case gen.KindAppend:
		ack, err := c.AppendRows(e.ctx, fleetIface, fleetTable, op.Rows, true)
		if err != nil {
			r.fail("append: %v", err)
			return
		}
		st.rows += len(op.Rows)
		if !ack.Flushed || ack.Accepted != len(op.Rows) || ack.RowCount != st.rows {
			r.fail("append ack %+v, want %d accepted, flushed, rowCount %d", *ack, len(op.Rows), st.rows)
		}
		st.epoch = ack.Epoch
	case gen.KindQuery:
		resp, err := c.Query(e.ctx, fleetIface, api.QueryRequest{Limit: queryLimit})
		if err != nil {
			r.fail("query: %v", err)
			return
		}
		if resp.Epoch < st.epoch {
			r.fail("query answered at epoch %d after an ack at epoch %d", resp.Epoch, st.epoch)
		}
	case gen.KindMutate:
		ack, err := c.MutateRows(e.ctx, fleetIface, op.SQL, 0)
		if err != nil {
			r.fail("mutate %q: %v", op.SQL, err)
			return
		}
		if ack.Epoch < st.epoch {
			r.fail("mutate ack at epoch %d after an ack at epoch %d", ack.Epoch, st.epoch)
		}
		st.epoch = max(st.epoch, ack.Epoch)
	}
}

// fleetHooks are the points where the untraced and the traced
// repetition differ.
type fleetHooks struct {
	beforeTimed func()                       // after the warm-up, outside any timing
	onOp        func(i int) func()           // brackets every timed op
	afterOp     func(i int, op *gen.FleetOp) // after every timed op, outside its timing
}

// drive warms up and runs the timed ops through c.
func (w *fleetWrite) drive(e *env, r *rep, c *client.Client, procs []*sut.Proc, t0 time.Time, h fleetHooks) (*fleetState, error) {
	st := &fleetState{rows: e.sz.fleetRows}
	for i := 0; i < w.warmOps; i++ {
		w.do(e, r, c, st, &w.ops[i])
	}
	r.setup = time.Since(t0)
	if r.failed > 0 {
		return nil, failedErr("warm-up", r)
	}
	if h.beforeTimed != nil {
		h.beforeTimed()
	}
	timed := w.ops[w.warmOps:]
	r.kinds = make([]string, len(timed))
	for i := range timed {
		r.kinds[i] = timed[i].Kind
	}
	err := r.measure(procs, len(timed), func(i int) {
		done := h.onOp(i)
		w.do(e, r, c, st, &timed[i])
		done()
		if h.afterOp != nil {
			h.afterOp(i, &timed[i])
		}
	})
	return st, err
}

// userBytes is the JSON size of the rows the timed appends sent.
func (w *fleetWrite) userBytes() (n int) {
	for i := range w.ops[w.warmOps:] {
		if op := &w.ops[w.warmOps+i]; op.Kind == gen.KindAppend {
			b, _ := json.Marshal(op.Rows)
			n += len(b)
		}
	}
	return n
}

// walBytes sums the write-ahead-log segments under a data dir.
func walBytes(dataDir string) (n int64) {
	_ = filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(path, ".wal"+string(filepath.Separator)) {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (w *fleetWrite) run(e *env, final bool) (*rep, error) {
	dir, err := e.repDir(w.name())
	if err != nil {
		return nil, err
	}
	r := &rep{counts: map[string]float64{}}
	t0 := time.Now()
	dataA := filepath.Join(dir, "shard-a")
	a, err := e.startServer("shard-a", "pi-serve", func(url string) []string {
		return []string{"-shard-addr", url, "-workloads", fleetIface, "-n", strconv.Itoa(e.sz.fleetN),
			"-rows", strconv.Itoa(e.sz.fleetRows), "-seed", strconv.FormatInt(e.seed, 10),
			"-data-dir", dataA, "-wal", "-wal-sync", "0", "-token", fleetToken}
	})
	if err != nil {
		return nil, err
	}
	defer func() { a.proc.Kill() }() // a.proc changes when the post-check restarts A
	b, err := e.startServer("shard-b", "pi-serve", func(url string) []string {
		return []string{"-shard-addr", url, "-workloads", "", "-token", fleetToken}
	})
	if err != nil {
		return nil, err
	}
	defer b.proc.Kill()
	for _, s := range []*server{a, b} {
		if err := e.waitHealthy(s, nil); err != nil {
			return nil, err
		}
	}
	rt, err := e.startServer("router", "pi-router", func(string) []string {
		return []string{"-shards", a.url + "," + b.url, "-replicas", "2", "-refresh-every", "200ms", "-token", fleetToken}
	})
	if err != nil {
		return nil, err
	}
	defer rt.proc.Kill()
	if err := e.waitHealthy(rt, nil); err != nil {
		return nil, err
	}
	// Set-up ends only when the standby holds a synced copy: from here
	// on every ack includes the hop to B.
	if err := e.waitHealthy(a, func(h *api.Health) bool { return syncedFollowers(h) == 1 }); err != nil {
		return nil, fmt.Errorf("standby never synced: %w", err)
	}
	c, err := newClient(rt.url, fleetToken)
	if err != nil {
		return nil, err
	}

	procs := []*sut.Proc{a.proc, b.proc, rt.proc}
	var m0 map[string]float64
	var wal0 int64
	st, err := w.drive(e, r, c, procs, t0, fleetHooks{onOp: noSpan, beforeTimed: func() {
		m0, _ = e.scrape(a) // a failed scrape shows as absurd deltas, and as an error on the second one
		wal0 = walBytes(dataA)
	}})
	if err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return r, nil
	}
	m1, err := e.scrape(a)
	if err != nil {
		return nil, err
	}
	ops := float64(len(r.lat))
	if n := delta(m0, m1, "pi_wal_fsync_seconds_count"); n > 0 {
		r.counts["wal.fsync_us"] = delta(m0, m1, "pi_wal_fsync_seconds_sum") / n * 1e6
	}
	r.counts["wal.fsyncs_per_op"] = delta(m0, m1, "pi_wal_syncs_total") / ops
	r.counts["replica.events_per_op"] = delta(m0, m1, fmt.Sprintf("pi_replica_seq{iface=%q}", fleetIface)) / ops
	r.counts["wal.bytes_per_user_byte"] = float64(walBytes(dataA)-wal0) / float64(w.userBytes())

	if final {
		if err := w.durability(e, r, a, b, st); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func syncedFollowers(h *api.Health) (n int) {
	if row := healthRow(h, fleetIface); row != nil && row.Replication != nil {
		for _, f := range row.Replication.Followers {
			if f.Synced {
				n++
			}
		}
	}
	return n
}

// durability is the post-check of the last repetition: everything acked
// is fsynced and on the follower; then shard A is SIGKILLed — the
// kernel's page cache survives a process kill, so this checks the
// replay path, not the device — restarted on the same data dir, and
// must come back with every acked row.
func (w *fleetWrite) durability(e *env, r *rep, a, b *server, st *fleetState) error {
	health := func(s *server) (*api.HealthInterface, error) {
		c, err := probeClient(s.url, fleetToken)
		if err != nil {
			return nil, err
		}
		h, err := c.Health(e.ctx)
		if err != nil {
			return nil, err
		}
		row := healthRow(h, fleetIface)
		if row == nil || row.Replication == nil {
			return nil, fmt.Errorf("%s: healthz has no replication row for %s", s.proc.Name, fleetIface)
		}
		return row, nil
	}
	ha, err := health(a)
	if err != nil {
		return err
	}
	hb, err := health(b)
	if err != nil {
		return err
	}
	if ha.WAL == nil || ha.WAL.SyncedSeq != ha.WAL.LastSeq {
		r.fail("owner WAL not fully synced after the last ack: %+v", ha.WAL)
	}
	if hb.Replication.Seq != ha.Replication.Seq {
		r.fail("follower at seq %d, owner at seq %d", hb.Replication.Seq, ha.Replication.Seq)
	}

	a.proc.Kill()
	t0 := time.Now()
	if err := e.restart(a, "shard-a-restarted"); err != nil {
		return err
	}
	if err := e.waitHealthy(a, func(h *api.Health) bool { return healthRow(h, fleetIface) != nil }); err != nil {
		return fmt.Errorf("shard A did not come back: %w", err)
	}
	r.counts["ingest.restore_ms"] = millis(time.Since(t0))
	c, err := probeClient(a.url, fleetToken)
	if err != nil {
		return err
	}
	// A snapshot reports the dataset rows it persisted: the restored
	// table's row count, without adding a row to it.
	snap, err := c.Snapshot(e.ctx)
	if err != nil {
		return fmt.Errorf("snapshot of restarted shard A: %w", err)
	}
	for _, si := range snap.Interfaces {
		if si.ID == fleetIface && si.Rows != st.rows {
			r.fail("restarted shard A holds %d rows, %d were acked", si.Rows, st.rows)
		}
	}
	return nil
}

func (w *fleetWrite) finish(*env, []*rep) error { return nil }

func (w *fleetWrite) layers(e *env) (map[string]float64, float64, error) {
	dir, err := e.repDir(w.name() + "-traced")
	if err != nil {
		return nil, 0, err
	}
	rec := &trace.Recorder{}
	t0 := time.Now()
	a, err := trace.StartServe(rec, trace.ServeOptions{
		Label: "a", Workloads: []string{fleetIface}, N: e.sz.fleetN, Rows: e.sz.fleetRows, Seed: e.seed,
		Batch: 8, Token: fleetToken, Shard: true, DataDir: filepath.Join(dir, "shard-a"),
	})
	if err != nil {
		return nil, 0, err
	}
	defer a.Close()
	b, err := trace.StartServe(rec, trace.ServeOptions{Label: "b", Batch: 8, Token: fleetToken, Shard: true})
	if err != nil {
		return nil, 0, err
	}
	defer b.Close()
	rtp, rt, err := trace.StartRouter(rec, []string{a.URL, b.URL}, 2, fleetToken)
	if err != nil {
		return nil, 0, err
	}
	defer rtp.Close()
	rt.Refresh(e.ctx) // seeds B as A's follower
	ctx, cancel := context.WithTimeout(e.ctx, bootTimeout)
	defer cancel()
	err = sut.Poll(ctx, nil, func() bool {
		info := a.Node.Replication().Info(fleetIface)
		return info != nil && len(info.Followers) == 1 && info.Followers[0].Synced
	})
	if err != nil {
		return nil, 0, fmt.Errorf("traced standby never synced: %w", err)
	}
	rt.Refresh(e.ctx) // picks up the synced follower set
	c, err := newClient(rtp.URL, fleetToken)
	if err != nil {
		return nil, 0, err
	}

	// After each timed query, the same query again: now a cache hit. The
	// difference is what the first read after a publish pays.
	r := &rep{}
	var queries []int // timed op indexes of the queries
	var hitUS []float64
	_, err = w.drive(e, r, c, nil, t0, fleetHooks{
		onOp: clientSpan(rec),
		afterOp: func(i int, op *gen.FleetOp) {
			if op.Kind != gen.KindQuery {
				return
			}
			t := time.Now()
			if _, err := c.Query(e.ctx, fleetIface, api.QueryRequest{Limit: queryLimit}); err == nil {
				queries = append(queries, i)
				hitUS = append(hitUS, micros(time.Since(t)))
			}
		},
	})
	if err != nil {
		return nil, 0, err
	}
	if r.failed > 0 {
		return nil, 0, failedErr(w.name()+" traced", r)
	}
	// op_p50_us is the acked-append latency: report the chain over appends.
	appends := func(i int) bool { return r.kinds[i] == gen.KindAppend }
	layer, p50 := chainLayers(rec, r, appends, []layerDef{
		{"client.self_us", []string{"client"}},
		{"server.self_us", []string{"server:router", "server:a"}},
		{"shard.router_self_us", []string{"servicer:router"}},
		{"shard.node_self_us", []string{"servicer:a"}},
		{"replica.ship_us", []string{"server:b", "admin:b"}},
	})
	var postPublish []float64
	for k, i := range queries {
		postPublish = append(postPublish, r.lat[i]-hitUS[k])
	}
	layer["engine.post_publish_query_us"] = stats.Median(postPublish)

	if layer["store.append_us"], layer["engine.eval_dml_us"], err = w.isolated(e); err != nil {
		return nil, 0, err
	}
	return layer, p50, nil
}

// isolated times store.AppendRows of one 16-row batch and
// engine.EvalDML of one mutation, alone, on a store the size the
// shard serves.
func (w *fleetWrite) isolated(e *env) (appendUS, dmlUS float64, err error) {
	st := store.FromDB(engine.OnTimeDB(e.sz.fleetRows))
	var appends, dmls []float64
	for i := w.warmOps; i < len(w.ops); i++ {
		switch op := &w.ops[i]; op.Kind {
		case gen.KindAppend:
			rows := make([][]engine.Value, len(op.Rows))
			for j, row := range op.Rows {
				rows[j] = make([]engine.Value, len(row))
				for k, v := range row {
					if s, ok := v.(string); ok {
						rows[j][k] = engine.Str(s)
					} else {
						rows[j][k] = engine.Num(v.(float64))
					}
				}
			}
			t := time.Now()
			if _, err := st.AppendRows(fleetTable, rows); err != nil {
				return 0, 0, err
			}
			appends = append(appends, micros(time.Since(t)))
		case gen.KindMutate:
			stmt, err := sqlparser.ParseStatement(op.SQL)
			if err != nil {
				return 0, 0, err
			}
			view := st.Snapshot()
			t := time.Now()
			if _, err := engine.EvalDML(view, stmt); err != nil {
				return 0, 0, err
			}
			dmls = append(dmls, micros(time.Since(t)))
		}
	}
	return stats.Median(appends), stats.Median(dmls), nil
}
