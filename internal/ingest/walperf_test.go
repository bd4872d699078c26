package ingest

import (
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
)

// bigDB builds a dataset large enough that a full base rewrite
// visibly dwarfs a 1% tail.
func bigDB(t testing.TB, rows int) *engine.DB {
	t.Helper()
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= rows; i++ {
		if err := tbl.AddRow(engine.Num(float64(i*10)), engine.Num(float64(i%97))); err != nil {
			t.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	return db
}

// hostPerf hosts a 20k-row interface. With journal set, a persister
// journals every ack into the default log; without, the ingester has
// no journal at all — the no-durability baseline.
func hostPerf(t testing.TB, journal bool) (*Ingester, *Persister, func()) {
	t.Helper()
	dir := t.TempDir()
	reg := api.NewRegistry()
	ing := New(reg, Options{})
	if _, err := ing.Host("live", "perf", fixtureLog(4), bigDB(t, 20000), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if !journal {
		return ing, nil, func() {}
	}
	p := NewPersister(dir, ing, PersistOptions{})
	return ing, p, func() { p.Close() }
}

// appendTail acks one append of n rows.
func appendTail(t testing.TB, ing *Ingester, first, n int) {
	t.Helper()
	rows := make([][]engine.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, numRow(float64(first+i), float64(i%97)))
	}
	if _, err := ing.SubmitRows("live", "t", rows); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSnapshotCheaper pins the checkpoint's save economics:
// after a 1% tail the log already holds the change, so a save writes
// nothing (bytes 0) and leaves the log in place; once the log outgrows
// checkpointFraction of the base, one save writes one base and
// truncates the log. (Bytes, not wall time: bytes are deterministic
// under CI noise.)
func TestDifferentialSnapshotCheaper(t *testing.T) {
	ing, p, cleanup := hostPerf(t, true)
	defer cleanup()

	res, err := p.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := res.Interfaces[0].Bytes
	if baseBytes == 0 {
		t.Fatal("first save wrote no base")
	}

	// 1% of the dataset arrives, acked and journaled.
	appendTail(t, ing, 1000000, 200)
	res, err = p.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Interfaces[0]; got.Bytes != 0 || got.Rows != 20200 {
		t.Fatalf("save after a 1%% tail = %+v, want no base written and 20200 rows reported", got)
	}
	tail, _ := p.WALStatus("live")
	if tail.Lag != 1 {
		t.Fatalf("log holds %d publications past the base, want the 1 tail", tail.Lag)
	}
	t.Logf("base: %d bytes; log after a 1%% tail: %d bytes (%.1f%% of the base)",
		baseBytes, tail.Bytes, 100*float64(tail.Bytes)/float64(baseBytes))

	// Grow the log past the fraction: the next save checkpoints.
	for n := 1; tail.Bytes*checkpointFraction <= baseBytes; n++ {
		appendTail(t, ing, 1000000+200*n, 200)
		tail, _ = p.WALStatus("live")
	}
	res, err = p.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interfaces[0].Bytes == 0 {
		t.Fatalf("log at %d bytes against a %d-byte base, but the save wrote no base", tail.Bytes, baseBytes)
	}
	after, _ := p.WALStatus("live")
	if after.Lag != 0 || after.Bytes >= tail.Bytes/10 {
		t.Fatalf("checkpoint left the log at %+v (was %d bytes)", after, tail.Bytes)
	}
}

// Benchmarks feeding scripts/bench_json.sh -> BENCH_wal.json.

func benchAcks(b *testing.B, journal bool) {
	ing, p, cleanup := hostPerf(b, journal)
	defer cleanup()
	if p != nil {
		if _, err := p.SaveAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(float64(3000000+i), 5)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAckedAppendNoWAL(b *testing.B) { benchAcks(b, false) }
func BenchmarkAckedAppendWALStrict(b *testing.B) {
	benchAcks(b, true)
}

func BenchmarkSnapshotFull(b *testing.B) {
	ing, _, cleanup := hostPerf(b, false)
	defer cleanup()
	snap, err := ing.Capture("live")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Save(dir, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint is a save after each 1% tail: the log already
// holds the tail, so most saves write no base; the base rewrites the
// checkpoint fraction triggers are amortized into the per-op cost.
func BenchmarkCheckpoint(b *testing.B) {
	ing, p, cleanup := hostPerf(b, true)
	defer cleanup()
	if _, err := p.SaveAll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		appendTail(b, ing, 4000000+i*200, 200)
		b.StartTimer()
		if _, err := p.SaveAll(); err != nil {
			b.Fatal(err)
		}
	}
}
