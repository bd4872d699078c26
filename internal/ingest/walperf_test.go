package ingest

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// bigDB builds a dataset large enough that a full snapshot rewrite
// visibly dwarfs a 1% differential.
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

func hostPerf(t testing.TB, walOpts *wal.Options) (*Ingester, *Persister, func()) {
	t.Helper()
	dir := t.TempDir()
	reg := api.NewRegistry()
	ing := New(reg, Options{BatchSize: 2, RowBatchSize: 1})
	if _, err := ing.Host("live", "perf", fixtureLog(4), bigDB(t, 20000), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	popts := PersistOptions{}
	cleanup := func() {}
	if walOpts != nil {
		m := wal.NewManager(dir, *walOpts)
		popts.WAL = m
		cleanup = func() { m.Close() }
	}
	p := NewPersister(dir, ing, popts)
	return ing, p, cleanup
}

// TestDifferentialSnapshotCheaper pins the tentpole's save economics:
// at a 1% delta, the differential save must write at least 5x fewer
// bytes than the full base rewrite it replaces. (Bytes, not wall
// time: bytes are deterministic under CI noise, and the write is the
// cost the delta exists to avoid.)
func TestDifferentialSnapshotCheaper(t *testing.T) {
	ing, p, cleanup := hostPerf(t, &wal.Options{})
	defer cleanup()

	fullStart := time.Now()
	res, err := p.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(fullStart)
	fullBytes := res.Interfaces[0].Bytes
	if fullBytes == 0 {
		t.Fatal("full save reported zero bytes")
	}

	// 1% of the dataset arrives, acked and journaled.
	delta := make([][]engine.Value, 0, 200)
	for i := 0; i < 200; i++ {
		delta = append(delta, numRow(float64(1000000+i), float64(i%97)))
	}
	if _, err := ing.SubmitRows("live", "t", delta, true); err != nil {
		t.Fatal(err)
	}

	diffStart := time.Now()
	res, err = p.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	diffDur := time.Since(diffStart)
	diffBytes := res.Interfaces[0].Bytes
	if diffBytes == 0 {
		t.Fatal("differential save reported zero bytes (no delta was cut)")
	}
	t.Logf("full save: %d bytes in %v; differential (1%% delta): %d bytes in %v (%.1fx fewer bytes)",
		fullBytes, fullDur, diffBytes, diffDur, float64(fullBytes)/float64(diffBytes))
	if diffBytes*5 > fullBytes {
		t.Fatalf("differential save wrote %d bytes, full %d — less than the pinned 5x saving at a 1%% delta",
			diffBytes, fullBytes)
	}
}

// TestWALAckOverheadBounded pins the ack path clients see: with group
// commit, an acked row append over HTTP must cost at most 1.5x the
// WAL-off round trip — the journal adds one buffered write under the
// feed lock, not an fsync. Wall-time comparisons wobble under CI
// load, so the pin takes the best of several attempts.
func TestWALAckOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing pin; skipped in -short")
	}
	const rounds = 150
	timeAcks := func(ing *Ingester, seed int) time.Duration {
		svc := api.NewService(ing.reg)
		svc.SetIngestor(ing)
		ts := httptest.NewServer(server.New(svc).Handler())
		defer ts.Close()
		url := ts.URL + "/v1/interfaces/live/rows?flush=1"
		// Warm the connection and the handler path off the clock.
		postPerfRow(t, url, seed)
		start := time.Now()
		for i := 1; i <= rounds; i++ {
			postPerfRow(t, url, seed+i)
		}
		return time.Since(start)
	}

	var best float64 = -1
	for attempt := 0; attempt < 5; attempt++ {
		ingOff, _, cleanOff := hostPerf(t, nil)
		off := timeAcks(ingOff, 2000000)
		cleanOff()

		ingWAL, pWAL, cleanWAL := hostPerf(t, &wal.Options{SyncInterval: 2 * time.Millisecond})
		if _, err := pWAL.SaveAll(); err != nil { // anchor the log with a base
			t.Fatal(err)
		}
		on := timeAcks(ingWAL, 2100000)
		cleanWAL()

		ratio := float64(on) / float64(off)
		if best < 0 || ratio < best {
			best = ratio
		}
		t.Logf("attempt %d: no-wal %v, wal(group) %v per %d acks, ratio %.2fx", attempt, off, on, rounds, ratio)
		if ratio <= 1.5 {
			return
		}
	}
	t.Fatalf("acked append with group-commit WAL is %.2fx the WAL-off cost (pinned bound 1.5x)", best)
}

// postPerfRow drives one acked append through the rows endpoint.
func postPerfRow(t *testing.T, url string, n int) {
	t.Helper()
	body := fmt.Sprintf(`{"table":"t","rows":[[%d,3]]}`, n)
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append returned %d", resp.StatusCode)
	}
}

// Benchmarks feeding scripts/bench_json.sh -> BENCH_wal.json.

func benchAcks(b *testing.B, walOpts *wal.Options) {
	ing, p, cleanup := hostPerf(b, walOpts)
	defer cleanup()
	if walOpts != nil {
		if _, err := p.SaveAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(float64(3000000+i), 5)}, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAckedAppendNoWAL(b *testing.B) { benchAcks(b, nil) }
func BenchmarkAckedAppendWALStrict(b *testing.B) {
	benchAcks(b, &wal.Options{})
}
func BenchmarkAckedAppendWALGroup(b *testing.B) {
	benchAcks(b, &wal.Options{SyncInterval: 2 * time.Millisecond})
}

func BenchmarkSnapshotFull(b *testing.B) {
	ing, _, cleanup := hostPerf(b, nil)
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

func BenchmarkSnapshotDifferential(b *testing.B) {
	ing, p, cleanup := hostPerf(b, &wal.Options{})
	defer cleanup()
	if _, err := p.SaveAll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rows := make([][]engine.Value, 0, 200)
		for j := 0; j < 200; j++ {
			rows = append(rows, numRow(float64(4000000+i*200+j), float64(j%97)))
		}
		if _, err := ing.SubmitRows("live", "t", rows, true); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := p.SaveAll(); err != nil {
			b.Fatal(err)
		}
	}
}
