package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/server"
	"repro/internal/store"
)

// fixtureDB is a tiny dataset matching the "SELECT a FROM t WHERE x=N"
// template the tests mine.
func fixtureDB(t *testing.T) *engine.DB {
	t.Helper()
	tbl := engine.NewTable("t", "a", "x")
	for i := 1; i <= 50; i++ {
		if err := tbl.AddRow(engine.Num(float64(i*10)), engine.Num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	db := engine.NewDB()
	db.AddTable(tbl)
	return db
}

func fixtureLog(n int) *qlog.Log {
	l := &qlog.Log{}
	for i := 1; i <= n; i++ {
		l.Append(fmt.Sprintf("SELECT a FROM t WHERE x = %d", i), "")
	}
	return l
}

func entry(sql string) qlog.Entry { return qlog.Entry{SQL: sql} }

// Store returns the versioned store backing a live-hosted interface.
func (ing *Ingester) Store(id string) (*store.Store, error) {
	f, err := ing.feed(id)
	if err != nil {
		return nil, err
	}
	return f.store, nil
}

func newIngester(t *testing.T, opts Options) (*api.Registry, *Ingester, *api.Hosted) {
	t.Helper()
	reg := api.NewRegistry()
	ing := New(reg, opts)
	h, err := ing.Host("live", "live test", fixtureLog(4), fixtureDB(t), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return reg, ing, h
}

// TestSubmitPublishesBeforeAck: every submission re-mines and hot
// swaps before it returns — however small — so its ack carries the
// epoch that serves it and nothing waits behind it.
func TestSubmitPublishesBeforeAck(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	if h.Epoch() != 1 {
		t.Fatalf("initial epoch = %d", h.Epoch())
	}
	ack, err := ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 30")})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed || ack.Buffered != 0 || ack.Accepted != 1 || ack.Epoch != 2 || h.Epoch() != 2 {
		t.Fatalf("ack = %+v, want published at epoch 2", ack)
	}
	// A multi-entry submission is one publication: one epoch bump.
	ack, err = ing.Submit("live", []qlog.Entry{
		entry("SELECT a FROM t WHERE x = 31"),
		entry("SELECT a FROM t WHERE x = 32"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Flushed || ack.Buffered != 0 || ack.Accepted != 2 || ack.Epoch != 3 {
		t.Fatalf("ack = %+v, want published at epoch 3", ack)
	}
	// The served interface widened: 32 is now inside the mined domain.
	found := false
	for _, w := range h.Iface().Widgets {
		if w.Domain.IsNumericRange() {
			if _, hi := w.Domain.Range(); hi >= 32 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no widget domain widened to the ingested values")
	}
	if n, err := minedLen(ing, "live"); err != nil || n != 7 {
		t.Fatalf("mined len = %d (%v), want 7", n, err)
	}
}

// TestSubmitStatus: the feed's counters after a submission with one
// unparseable entry — accepted, dropped, one re-mine, nothing waiting.
func TestSubmitStatus(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	ack, err := ing.Submit("live", []qlog.Entry{
		entry("SELECT a FROM t WHERE x = 40"),
		entry("not sql at all ((("),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 2 || h.Epoch() != 2 || ack.Dropped != 1 {
		t.Fatalf("ack = %+v epoch=%d, want epoch 2 with one dropped", ack, h.Epoch())
	}
	st, ok := ing.IngestStatus("live")
	if !ok {
		t.Fatal("no status for live feed")
	}
	if st.Accepted != 2 || st.Dropped != 1 || st.Flushes != 1 || st.Buffered != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("dropped entry left no error trace")
	}
}

func TestAllDroppedKeepsEpoch(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	ack, err := ing.Submit("live", []qlog.Entry{entry("garbage ~~~")})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 1 || h.Epoch() != 1 || ack.Dropped != 1 {
		t.Fatalf("ack = %+v epoch=%d, want unchanged epoch 1", ack, h.Epoch())
	}
}

func TestSubmitUnknownFeed(t *testing.T) {
	reg := api.NewRegistry()
	ing := New(reg, Options{})
	if _, err := ing.Submit("nope", []qlog.Entry{entry("SELECT a FROM t")}); err == nil {
		t.Fatal("unknown feed accepted")
	}
}

// TestLargeSubmissionLandsInBoundedPublications: a submission over
// maxPublishEntries is not refused and not truncated — it lands, in
// order, as consecutive publications of at most that many entries.
func TestLargeSubmissionLandsInBoundedPublications(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	var sizes []int
	ing.SetPublishHook(func(_ string, p Publication) error {
		sizes = append(sizes, len(p.Entries))
		return nil
	})
	entries := make([]qlog.Entry, maxPublishEntries+3)
	for i := range entries {
		entries[i] = entry(fmt.Sprintf("SELECT a FROM t WHERE x = %d", 100+i))
	}
	ack, err := ing.Submit("live", entries)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != len(entries) || ack.Epoch != 3 || h.Epoch() != 3 {
		t.Fatalf("ack = %+v, want all %d accepted at epoch 3", ack, len(entries))
	}
	if len(sizes) != 2 || sizes[0] != maxPublishEntries || sizes[1] != 3 {
		t.Fatalf("publication sizes = %v, want [%d 3]", sizes, maxPublishEntries)
	}
	if mined, _ := minedLen(ing, "live"); mined != 4+len(entries) {
		t.Fatalf("mined %d, want %d", mined, 4+len(entries))
	}
}

// TestNoStaleCacheAcrossSwap is the acceptance "epoch test": a result
// cached before ingestion must never be replayed after the hot swap —
// the post-swap query reports the new epoch and a cache miss.
func TestNoStaleCacheAcrossSwap(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	ts := httptest.NewServer(serveWith(nil, ing, h))
	defer ts.Close()

	first := postQuery(t, ts.URL, `{"widgets":[]}`)
	if first.Epoch != 1 || first.Cache != "miss" {
		t.Fatalf("first = %+v", first)
	}
	if again := postQuery(t, ts.URL, `{"widgets":[]}`); again.Cache != "hit" || again.Plan != "hit" {
		t.Fatalf("repeat before swap = %+v, want result+plan hits", again)
	}

	if _, err := ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 44")}); err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 2 {
		t.Fatalf("epoch after ingest = %d", h.Epoch())
	}
	after := postQuery(t, ts.URL, `{"widgets":[]}`)
	if after.Epoch != 2 {
		t.Fatalf("post-swap epoch = %d, want 2", after.Epoch)
	}
	if after.Cache != "miss" || after.Plan != "miss" {
		t.Fatalf("post-swap served pre-swap cached state: %+v", after)
	}
}

// serveWith builds the HTTP handler the way cmd/pi-serve does.
func serveWith(t *testing.T, ing *Ingester, h *api.Hosted) http.Handler {
	svc := api.NewService(ing.reg)
	svc.SetIngestor(ing)
	return server.New(svc).Handler()
}

func postQuery(t *testing.T, base, body string) *api.QueryResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/interfaces/live/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var out api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestIngestWidensServedQuery drives the live path over HTTP: a widget
// value outside the mined domain is rejected, and once an ingested
// entry widens the domain (its ack follows the swap) the same
// request answers at the new epoch with the value bound into its SQL.
func TestIngestWidensServedQuery(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	ts := httptest.NewServer(serveWith(t, ing, h))
	defer ts.Close()

	body := `{"widgets":[{"path":"` + h.Iface().Widgets[0].Path.String() + `","number":50}]}`
	resp, err := http.Post(ts.URL+"/v1/interfaces/live/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-domain query status = %d, want 422", resp.StatusCode)
	}
	if ack, err := ing.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 50")}); err != nil || !ack.Flushed || ack.Epoch != 2 {
		t.Fatalf("ingest ack = %+v, %v", ack, err)
	}
	out := postQuery(t, ts.URL, body)
	if out.Epoch != 2 || !strings.Contains(out.SQL, "50") {
		t.Fatalf("post-ingest answer = %+v", out)
	}
}

// TestIngestEndpointTextAndJSON drives POST /v1/interfaces/{id}/log in
// both body formats, including a multi-line statement, and checks
// /healthz reports the feed.
func TestIngestEndpointTextAndJSON(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	ts := httptest.NewServer(serveWith(t, ing, h))
	defer ts.Close()

	// text/plain, multi-line ;-terminated with a comment.
	text := "SELECT a\n  FROM t -- live\n  WHERE x = 45;\nSELECT a FROM t WHERE x = 46\n"
	resp, err := http.Post(ts.URL+"/v1/interfaces/live/log?flush=1", "text/plain", bytes.NewReader([]byte(text)))
	if err != nil {
		t.Fatal(err)
	}
	var ack api.IngestAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Accepted != 2 || !ack.Flushed || ack.Epoch != 2 {
		t.Fatalf("text ingest: status=%d ack=%+v", resp.StatusCode, ack)
	}

	// JSON body.
	body := `{"entries":[{"sql":"SELECT a FROM t WHERE x = 47","client":"c9"}]}`
	resp, err = http.Post(ts.URL+"/v1/interfaces/live/log?flush=1", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Accepted != 1 || ack.Epoch != 3 {
		t.Fatalf("json ingest: status=%d ack=%+v", resp.StatusCode, ack)
	}

	// /healthz carries the ingest counters and the epoch.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health api.Health
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || !health.Ingestion || len(health.Interfaces) != 1 {
		t.Fatalf("health = %+v", health)
	}
	row := health.Interfaces[0]
	if row.ID != "live" || row.Epoch != 3 || row.Ingest == nil || row.Ingest.Accepted != 3 {
		t.Fatalf("health row = %+v (ingest %+v)", row, row.Ingest)
	}
}

func TestIngestEndpointWithoutIngestorIs501(t *testing.T) {
	reg := api.NewRegistry()
	ing := New(reg, Options{})
	if _, err := ing.Host("live", "t", fixtureLog(3), fixtureDB(t), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(api.NewService(reg)).Handler()) // no SetIngestor
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/interfaces/live/log", "text/plain",
		bytes.NewReader([]byte("SELECT a FROM t WHERE x = 1\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestHotSwapUnderConcurrentQueries is the -race hammer: goroutines
// POST widget states nonstop while the main goroutine ingests (each
// flush hot-swaps a new epoch). Every response must carry an epoch at
// least as new as the epoch observed before the request was sent — a
// post-swap query served from a pre-swap cache would violate that.
func TestHotSwapUnderConcurrentQueries(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	ts := httptest.NewServer(serveWith(t, ing, h))
	defer ts.Close()

	const goroutines = 6
	const perG = 40
	stop := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				before := h.Epoch()
				// Alternate cached (initial) and fresh widget states.
				body := `{"widgets":[]}`
				resp, err := http.Post(ts.URL+"/v1/interfaces/live/query", "application/json",
					bytes.NewReader([]byte(body)))
				if err != nil {
					errs <- err
					return
				}
				var out api.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				if out.Epoch < before {
					errs <- fmt.Errorf("stale epoch: served %d, current was already %d", out.Epoch, before)
					return
				}
			}
		}(g)
	}

	// Meanwhile: ingest entries one by one; every submit swaps.
	for i := 0; i < 25; i++ {
		if _, err := ing.Submit("live", []qlog.Entry{
			entry(fmt.Sprintf("SELECT a FROM t WHERE x = %d", 100+i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h.Epoch() != 26 {
		t.Fatalf("final epoch = %d, want 26 (1 + 25 swaps)", h.Epoch())
	}
}

// TestTailFollowsFile appends to a log file (multi-line statements
// included) and waits for the tailer to mine them in.
func TestTailFollowsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.log")
	if err := os.WriteFile(path, []byte("SELECT a FROM t WHERE x = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ing, h := newIngester(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ing.Tail(ctx, "live", path, 5*time.Millisecond) }()

	// Give the tailer a beat to record the initial offset, then append.
	time.Sleep(20 * time.Millisecond)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("SELECT a\n  FROM t\n  WHERE x = 48;\nSELECT a FROM t WHERE x = 49\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if n, _ := minedLen(ing, "live"); n >= 6 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, _ := minedLen(ing, "live"); n < 6 {
		t.Fatalf("tailer mined %d entries, want 6 (4 seed + 2 appended)", n)
	}

	// A final line without a trailing newline must still land once the
	// file goes quiet.
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("SELECT a FROM t WHERE x = 50"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for time.Now().Before(deadline) {
		if n, _ := minedLen(ing, "live"); n >= 7 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, _ := minedLen(ing, "live"); n < 7 {
		t.Fatalf("tailer mined %d entries, want 7 (newline-less final line lost)", n)
	}
	if h.Epoch() < 2 {
		t.Fatalf("epoch = %d, want >= 2 after tailed ingestion", h.Epoch())
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("tail returned %v", err)
	}
}

// minedLen is how many log entries the feed's miner holds, read from a
// capture the way the persister reads it.
func minedLen(ing *Ingester, id string) (int, error) {
	snap, err := ing.Capture(id)
	if err != nil {
		return 0, err
	}
	return len(snap.Log), nil
}
