package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/server"
)

// liveFixture hosts the tiny interface behind a real store-backed
// ingester and an in-memory persister, so the SDK's AppendRows and
// Snapshot calls exercise the full stack.
func liveFixture(t *testing.T) (*api.Service, *memPersister) {
	t.Helper()
	l := &qlog.Log{}
	for i := 1; i <= 4; i++ {
		l.Append("SELECT a FROM t WHERE x = "+string(rune('0'+i)), "")
	}
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= 8; i++ {
		tbl.MustAddRow(engine.Num(float64(i*10)), engine.Num(float64(i)))
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	reg := api.NewRegistry()
	ing := ingest.New(reg, ingest.Options{})
	if _, err := ing.Host("tiny", "tiny live", l, db, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	p := &memPersister{}
	svc, _, err := api.NewPersistentService(reg, p)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetIngestor(ing)
	return svc, p
}

type memPersister struct{ saves atomic.Int64 }

func (p *memPersister) SaveAll() (*api.SnapshotResult, error) {
	p.saves.Add(1)
	return &api.SnapshotResult{Dir: "mem", Interfaces: []api.SnapshotInterface{{ID: "tiny", Epoch: 1}}}, nil
}

func (p *memPersister) Restore() (*api.RestoreResult, error) { return &api.RestoreResult{}, nil }

func (p *memPersister) RemoveSnapshot(id string) error { return nil }

func (p *memPersister) WALStatus(id string) (*api.WALInfo, bool) { return nil, false }

// TestClientAppendRowsAndSnapshot drives the two storage operations
// end to end through the SDK.
func TestClientAppendRowsAndSnapshot(t *testing.T) {
	svc, p := liveFixture(t)
	ts := httptest.NewServer(server.New(svc).Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := c.AppendRows(ctx, "tiny", "t", [][]any{{90.0, 9.0}, {100.0, 10.0}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 2 || !ack.Flushed || ack.RowCount != 10 || ack.Epoch != 2 {
		t.Fatalf("append ack = %+v", ack)
	}
	if epoch, err := c.Epoch(ctx, "tiny"); err != nil || epoch != 2 {
		t.Fatalf("post-append epoch = %d (%v)", epoch, err)
	}

	res, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.saves.Load() != 1 || len(res.Interfaces) != 1 || res.Interfaces[0].ID != "tiny" {
		t.Fatalf("snapshot = %+v (saves %d)", res, p.saves.Load())
	}
	if h, err := c.Health(ctx); err != nil || !h.Persistence {
		t.Fatalf("health persistence = %+v (%v)", h, err)
	}

	// The typed error surfaces for bad rows.
	_, err = c.AppendRows(ctx, "tiny", "missing", [][]any{{1.0}}, true)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeRowsRejected {
		t.Fatalf("bad table error = %v", err)
	}
}

// TestClientNeverRetriesAppendRows: like IngestLog, a replayed rows
// request would double-append; the SDK must send it exactly once.
func TestClientNeverRetriesAppendRows(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendRows(context.Background(), "tiny", "t", [][]any{{1.0}}, true); err == nil {
		t.Fatal("append against a dead server succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("AppendRows was retried: %d attempts, want 1", got)
	}
}

// TestClientContextCancellation: every SDK call takes a context; a
// canceled one must abort the request — including the backoff sleep
// between retries, so cancellation is prompt even mid-retry-loop.
func TestClientContextCancellation(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); ts.Close() })

	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	if _, err := c.ListInterfaces(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation was not prompt")
	}

	// A context canceled during retry backoff aborts the loop.
	var hits atomic.Int64
	ts5 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "flaky", http.StatusBadGateway)
	}))
	t.Cleanup(ts5.Close)
	c5, err := New(ts5.URL, WithRetries(10), WithBackoff(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ctx5, cancel5 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel5()
	if _, err := c5.ListInterfaces(ctx5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline during backoff returned %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts before the deadline, want 1", got)
	}
}
