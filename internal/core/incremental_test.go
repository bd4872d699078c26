package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// grownOLAP returns an OLAP log of n entries plus k extra entries drawn
// from the same generator (the continuation a live system would see).
func grownOLAP(n, k int) (initial *qlog.Log, extra []qlog.Entry) {
	full := workload.OLAPLog(n+k, 7)
	initial = full.Slice(0, n)
	for _, e := range full.Entries[n:] {
		extra = append(extra, e)
	}
	return initial, extra
}

func ifaceFingerprint(t *testing.T, i *Interface) string {
	t.Helper()
	out := fmt.Sprintf("initial=%s cost=%.4f widgets=%d\n", ast.SQL(i.Initial), i.Cost(), len(i.Widgets))
	for _, w := range i.Widgets {
		out += fmt.Sprintf("  %s %s absent=%v numeric=%v:", w.Path, w.Type.Name, w.Domain.HasAbsent(), w.Domain.IsNumericRange())
		for _, v := range w.Domain.Values() {
			if v == nil {
				out += " <absent>"
				continue
			}
			out += " " + ast.SQL(v)
		}
		out += "\n"
	}
	return out
}

// TestAppendMatchesBatchRemine is the incremental-correctness anchor: a
// miner fed a log in arbitrary pieces must serve exactly the interface a
// batch Generate over the same (parsable) entries produces. Schedules
// are seeded and random: chunk sizes from 1 to the whole remainder,
// salted with unparsable entries (dropped) and duplicates of earlier
// entries (mined), so all-junk chunks and identical-neighbour pairs
// occur too.
func TestAppendMatchesBatchRemine(t *testing.T) {
	logs := []struct {
		name string
		gen  func(n int, seed int64) *qlog.Log
	}{
		{"olap", workload.OLAPLog},
		{"adhoc", workload.AdhocLog},
		{"sdss", workload.SDSSFullLog},
	}
	// All-pairs mining keeps O(n²) diff records and every append
	// re-merges them, so it gets the shorter log and fewer schedules.
	configs := []struct {
		name     string
		miner    interaction.Options
		n, seeds int
	}{
		{"window2+lca", interaction.DefaultOptions(), 150, 6},
		{"allpairs", interaction.Options{WindowSize: 0, LCAPrune: false}, 36, 3},
	}
	for _, l := range logs {
		for _, c := range configs {
			t.Run(l.name+"/"+c.name, func(t *testing.T) {
				log := l.gen(c.n, 7)
				for seed := int64(1); seed <= int64(c.seeds); seed++ {
					checkRandomSchedule(t, log, Options{Miner: c.miner}, seed)
				}
			})
		}
	}
}

func checkRandomSchedule(t *testing.T, log *qlog.Log, opts Options, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	n0 := 1 + r.Intn(log.Len()/2)
	m, err := NewMiner(log.Slice(0, n0), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The stream: the rest of the log, salted. parsable collects what a
	// batch miner would be given.
	parsable := log.Slice(0, n0)
	var stream []qlog.Entry
	for _, e := range log.Entries[n0:] {
		if r.Intn(6) == 0 {
			stream = append(stream, qlog.Entry{SQL: "THIS IS NOT SQL ((("})
		}
		if r.Intn(6) == 0 {
			stream = append(stream, log.Entries[r.Intn(n0)])
		}
		stream = append(stream, e)
	}
	for len(stream) > 0 {
		k := 1
		switch r.Intn(8) {
		case 0:
			k = len(stream) // whole remainder
		case 1, 2, 3:
			k = 1 + r.Intn(min(12, len(stream)))
		}
		chunk := stream[:k]
		stream = stream[k:]
		good := 0
		for _, e := range chunk {
			if _, err := sqlparser.Parse(e.SQL); err == nil {
				parsable.Append(e.SQL, e.Client)
				good++
			}
		}
		if _, st, err := m.Append(chunk); err != nil {
			t.Fatal(err)
		} else if st.Added != good || st.ParseErrors != len(chunk)-good {
			t.Fatalf("seed %d: append stats = %+v, want %d added of %d", seed, st, good, len(chunk))
		}
	}

	want, err := Generate(parsable, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Interface()
	if g, w := ifaceFingerprint(t, got), ifaceFingerprint(t, want); g != w {
		t.Fatalf("seed %d: incremental interface diverged from batch mining:\nincremental:\n%s\nbatch:\n%s", seed, g, w)
	}
	gs, ws := got.Stats, want.Stats
	if gs.Comparisons != ws.Comparisons || gs.Edges != ws.Edges || gs.DiffRecords != ws.DiffRecords {
		t.Fatalf("seed %d: incremental stats %d/%d/%d, batch %d/%d/%d (comparisons/edges/diff records)",
			seed, gs.Comparisons, gs.Edges, gs.DiffRecords, ws.Comparisons, ws.Edges, ws.DiffRecords)
	}
	if m.Len() != parsable.Len() || !slices.Equal(m.Log().SQLs(), parsable.SQLs()) {
		t.Fatalf("seed %d: miner holds %d entries, want the %d parsable ones in order", seed, m.Len(), parsable.Len())
	}
}

// TestAppendWidensDomains: appending entries with fresh literals at a
// mined path must widen that widget's domain in place while keeping the
// interface's identity (initial query) stable.
func TestAppendWidensDomains(t *testing.T) {
	log := qlog.FromSQL(
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2",
		"SELECT a FROM t WHERE x = 3",
	)
	m, err := NewMiner(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := m.Interface()
	if len(before.Widgets) == 0 {
		t.Fatal("no widgets mined from seed log")
	}
	_, hi0 := before.Widgets[0].Domain.Range()

	iface, st, err := m.Append([]qlog.Entry{
		{SQL: "SELECT a FROM t WHERE x = 9"},
		{SQL: "SELECT a FROM t WHERE x = 42"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 2 {
		t.Fatalf("stats = %+v, want 2 added", st)
	}
	if !ast.Equal(iface.Initial, before.Initial) {
		t.Fatalf("initial query changed across append: %s -> %s",
			ast.SQL(before.Initial), ast.SQL(iface.Initial))
	}
	if len(iface.Widgets) == 0 {
		t.Fatal("widgets vanished")
	}
	_, hi1 := iface.Widgets[0].Domain.Range()
	if hi1 <= hi0 || hi1 != 42 {
		t.Fatalf("domain did not widen: max %g -> %g, want 42", hi0, hi1)
	}
	// The previously returned interface must be unaffected (readers may
	// still hold it mid-request).
	if _, hiOld := before.Widgets[0].Domain.Range(); hiOld != hi0 {
		t.Fatalf("append mutated the previously served interface (max now %g)", hiOld)
	}
}

// TestAppendDropsUnparseableEntries: bad entries are counted and
// skipped, good ones still mined.
func TestAppendDropsUnparseableEntries(t *testing.T) {
	log := qlog.FromSQL(
		"SELECT a FROM t WHERE x = 1",
		"SELECT a FROM t WHERE x = 2",
	)
	m, err := NewMiner(log, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.Append([]qlog.Entry{
		{SQL: "THIS IS NOT SQL ((("},
		{SQL: "SELECT a FROM t WHERE x = 7"},
		{SQL: "ALSO ;;; NOT SQL"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 1 || st.ParseErrors != 2 || st.LastParseError == "" {
		t.Fatalf("stats = %+v, want 1 added / 2 parse errors", st)
	}
	if m.Len() != 3 {
		t.Fatalf("miner length = %d, want 3", m.Len())
	}
}

// TestIncrementalSpeedup is the acceptance bar: appending a handful of
// entries to a large mined log must be at least 5x faster than the full
// re-mine (parse + mine + map) it replaces. Each side is the best of
// three trials, each timed after a forced GC, so a collection left over
// from building the miner or a descheduling on a loaded machine does not
// decide a sub-millisecond measurement.
func TestIncrementalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n, k, trials = 1200, 5, 3
	initial, extra := grownOLAP(n, k)
	grown := workload.OLAPLog(n+k, 7)

	var incr, full time.Duration
	for i := 0; i < trials; i++ {
		m, err := NewMiner(initial, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		t0 := time.Now()
		if _, _, err := m.Append(extra); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); i == 0 || d < incr {
			incr = d
		}

		runtime.GC()
		t1 := time.Now()
		if _, err := Generate(grown, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t1); i == 0 || d < full {
			full = d
		}
	}

	t.Logf("incremental append of %d onto %d: %v; full re-mine: %v (%.1fx)",
		k, n, incr, full, float64(full)/float64(incr))
	if incr*5 > full {
		t.Fatalf("incremental append %v not ≥5x faster than full re-mine %v", incr, full)
	}
}

// BenchmarkAppendIncremental measures the incremental path: batches of
// K=5 entries from the workload's own continuation stream appended to
// an n=1200 mined log. One miner absorbs every iteration's append —
// the log keeps growing, which is exactly the live scenario.
func BenchmarkAppendIncremental(b *testing.B) {
	const n, k, chunks = 1200, 5, 1024
	full := workload.OLAPLog(n+k*chunks, 7)
	m, err := NewMiner(full.Slice(0, n), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	stream := full.Entries[n:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i % chunks) * k
		if _, _, err := m.Append(stream[at : at+k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateGrown is the baseline the incremental path replaces:
// batch Generate over the grown log.
func BenchmarkGenerateGrown(b *testing.B) {
	const n, k = 1200, 5
	grown := workload.OLAPLog(n+k, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(grown, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
