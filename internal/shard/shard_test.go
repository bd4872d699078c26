package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/pi/client"
)

const testToken = "shard-secret"

// testShard is one running shard: its node, its HTTP server and the
// ingester its interfaces live on.
type testShard struct {
	node *Node
	ts   *httptest.Server
	ing  *ingest.Ingester

	mu sync.RWMutex
	h  http.Handler
}

// wrap puts a middleware in front of everything the shard serves from
// now on (fault injection, request counting).
func (s *testShard) wrap(mw func(next http.Handler) http.Handler) {
	s.mu.Lock()
	s.h = mw(s.h)
	s.mu.Unlock()
}

// fixture logs are mined per hosted interface; the raw logs and
// datasets are cheap to build but stable, so share them.
var logFixture struct {
	once sync.Once
	olap *qlog.Log
	adhc *qlog.Log
}

func fixtureLogs(t testing.TB) (*qlog.Log, *qlog.Log) {
	t.Helper()
	logFixture.once.Do(func() {
		logFixture.olap = workload.OLAPLog(80, 7)
		logFixture.adhc = workload.AdhocLog(80, 7)
	})
	return logFixture.olap, logFixture.adhc
}

// startShard boots a shard node serving the given workloads ("olap"
// and/or "adhoc") behind a real HTTP listener, with the admin surface
// mounted and bearer auth on.
func startShard(t testing.TB, ids ...string) *testShard {
	t.Helper()
	reg := api.NewRegistry()
	ing := ingest.New(reg, ingest.Options{})
	svc := api.NewService(reg)
	svc.SetIngestor(ing)

	// The node needs its advertised URL, which exists only once the
	// listener is up: serve through a late-bound handler.
	sh := &testShard{ing: ing}
	sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sh.mu.RLock()
		handler := sh.h
		sh.mu.RUnlock()
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(sh.ts.Close)

	node, err := NewNode(svc, ing, NodeOptions{Addr: sh.ts.URL, Token: testToken})
	if err != nil {
		t.Fatal(err)
	}
	sh.node = node
	auth := server.AuthConfig{Token: testToken}
	sh.mu.Lock()
	sh.h = server.New(node,
		server.WithAuth(auth),
		server.WithAdmin("/v1/shard/", node.AdminHandler(auth)),
	).Handler()
	sh.mu.Unlock()

	olap, adhc := fixtureLogs(t)
	for _, id := range ids {
		var log *qlog.Log
		switch id {
		case "olap":
			log = olap
		case "adhoc":
			log = adhc
		default:
			t.Fatalf("unknown fixture workload %q", id)
		}
		if _, err := ing.Host(id, id+" dashboard", log, engine.OnTimeDB(200), core.DefaultOptions()); err != nil {
			t.Fatalf("host %s: %v", id, err)
		}
	}
	return sh
}

// startFleet boots two shards (olap on A, adhoc on B) and a refreshed
// router over both.
func startFleet(t testing.TB) (*testShard, *testShard, *Router) {
	t.Helper()
	a := startShard(t, "olap")
	b := startShard(t, "adhoc")
	rt, err := NewRouter([]string{a.ts.URL, b.ts.URL}, RouterOptions{Token: testToken, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh(context.Background())
	return a, b, rt
}

func codeOf(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	var e *api.Error
	if !errors.As(err, &e) {
		t.Fatalf("error %v (%T) is not an *api.Error", err, err)
	}
	return e.Code
}

func TestRouterProxiesAndFansOut(t *testing.T) {
	a, b, rt := startFleet(t)

	list := rt.ListInterfaces()
	if len(list) != 2 || list[0].ID != "adhoc" || list[1].ID != "olap" {
		t.Fatalf("merged list = %+v, want [adhoc olap]", list)
	}

	// A query through the router must return exactly what the owning
	// shard returns directly.
	direct, err := a.node.Query("olap", api.QueryRequest{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := rt.Query("olap", api.QueryRequest{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if routed.SQL != direct.SQL || routed.RowCount != direct.RowCount || len(routed.Rows) != len(direct.Rows) {
		t.Fatalf("routed result differs: %d/%d rows vs %d/%d", len(routed.Rows), routed.RowCount, len(direct.Rows), direct.RowCount)
	}
	for i := range routed.Rows {
		for j := range routed.Rows[i] {
			if routed.Rows[i][j] != direct.Rows[i][j] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, routed.Rows[i][j], direct.Rows[i][j])
			}
		}
	}

	// Fan-out health covers both shards.
	h := rt.Health()
	if h.Status != "ok" || len(h.Shards) != 2 || len(h.Interfaces) != 2 {
		t.Fatalf("health = %+v", h)
	}
	// Per-interface ops route by owner.
	if _, err := rt.GetInterface("adhoc"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Query("nope", api.QueryRequest{}); codeOf(t, err) != api.CodeNotFound {
		t.Fatalf("unknown interface code = %v", err)
	}
	_ = b
}

func TestMigrateLiveAndSDKFollowsMoved(t *testing.T) {
	a, b, rt := startFleet(t)

	before, err := rt.Query("olap", api.QueryRequest{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}

	res, err := rt.Migrate(context.Background(), "olap", b.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.From != a.ts.URL || res.To != b.ts.URL {
		t.Fatalf("migrate result = %+v", res)
	}
	if res.Epoch <= before.Epoch {
		t.Fatalf("target hosts at epoch %d, want > source epoch %d", res.Epoch, before.Epoch)
	}

	// Router answers identically from the new shard.
	after, err := rt.Query("olap", api.QueryRequest{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if after.SQL != before.SQL || after.RowCount != before.RowCount {
		t.Fatalf("post-migration result differs: %+v vs %+v", after, before)
	}
	if got := rt.Placement()["olap"]; got != b.ts.URL {
		t.Fatalf("placement = %q, want %q", got, b.ts.URL)
	}

	// The source answers with a structured moved error...
	_, err = a.node.Query("olap", api.QueryRequest{Limit: 1})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeMoved || ae.Addr != b.ts.URL {
		t.Fatalf("source query error = %v, want moved -> %s", err, b.ts.URL)
	}

	// ...which the SDK follows transparently, even though it was
	// pointed at the old shard.
	c, err := client.New(a.ts.URL, client.WithToken(testToken))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(context.Background(), "olap", api.QueryRequest{Limit: 5})
	if err != nil {
		t.Fatalf("SDK did not follow the move: %v", err)
	}
	if resp.RowCount != before.RowCount {
		t.Fatalf("followed query rowCount = %d, want %d", resp.RowCount, before.RowCount)
	}

	// Ingestion still reaches the interface through the router on its
	// new shard.
	ack, err := rt.IngestLog("olap", []qlog.Entry{{SQL: "SELECT carrier, avg(delay) FROM ontime WHERE month = 3 GROUP BY carrier"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Epoch <= res.Epoch {
		t.Fatalf("post-migration ingest epoch = %d, want > %d", ack.Epoch, res.Epoch)
	}
}

// TestCursorExpiresAcrossMigration: an epoch-bound cursor minted by
// the source shard must expire with cursor_expired after the interface
// moves — the target hosts at epoch + 1 precisely so a stale cursor
// can never silently page a restored result set.
func TestCursorExpiresAcrossMigration(t *testing.T) {
	a, _, rt := startFleet(t)

	// The adhoc fixture's initial query returns the whole table, so a
	// small limit always mints a cursor (olap's initial aggregate does
	// not — asserting here keeps the fixture honest instead of letting
	// the test skip itself into uselessness).
	first, err := rt.Query("adhoc", api.QueryRequest{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Truncated || first.NextCursor == "" {
		t.Fatalf("adhoc fixture initial query fits %d rows and minted no cursor; pick a fixture that paginates", first.RowCount)
	}

	// The cursor still pages correctly before the move.
	if _, err := rt.Query("adhoc", api.QueryRequest{Limit: 2, Cursor: first.NextCursor}); err != nil {
		t.Fatalf("pre-migration cursor rejected: %v", err)
	}

	if _, err := rt.Migrate(context.Background(), "adhoc", a.ts.URL); err != nil {
		t.Fatal(err)
	}

	_, err = rt.Query("adhoc", api.QueryRequest{Limit: 2, Cursor: first.NextCursor})
	if codeOf(t, err) != api.CodeCursorExpired {
		t.Fatalf("stale cursor after migration = %v, want %s", err, api.CodeCursorExpired)
	}

	// A fresh first page works and mints a usable cursor again.
	again, err := rt.Query("adhoc", api.QueryRequest{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.RowCount != first.RowCount {
		t.Fatalf("post-migration rowCount = %d, want %d", again.RowCount, first.RowCount)
	}
	if !again.Truncated {
		t.Fatalf("post-migration first page not truncated (rowCount %d)", again.RowCount)
	}
	if _, err := rt.Query("adhoc", api.QueryRequest{Limit: 2, Cursor: again.NextCursor}); err != nil {
		t.Fatalf("fresh cursor rejected: %v", err)
	}
}

// TestAcceptClearsTombstoneAndBumpsEpoch: an A→B→A round trip. The
// seed A accepts on the way back clears the tombstone it left on the
// way out, and every owner change bumps the epoch, so epochs stay
// strictly increasing across moves.
func TestAcceptClearsTombstoneAndBumpsEpoch(t *testing.T) {
	a, b, rt := startFleet(t)
	start, err := a.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}

	out, err := rt.Migrate(context.Background(), "olap", b.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.node.Epoch("olap")
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeMoved || ae.Addr != b.ts.URL {
		t.Fatalf("source answered %v, want moved to %s", err, b.ts.URL)
	}
	epochOnB, err := b.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != epochOnB.Epoch || epochOnB.Epoch <= start.Epoch {
		t.Fatalf("epoch %d -> migrate reported %d, B serves %d; want strictly increasing", start.Epoch, out.Epoch, epochOnB.Epoch)
	}

	// Move it back: A is seeded again, clearing its tombstone.
	if _, err := rt.Migrate(context.Background(), "olap", a.ts.URL); err != nil {
		t.Fatal(err)
	}
	back, err := a.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch <= epochOnB.Epoch {
		t.Fatalf("round-trip epoch %d, want > %d (monotone across moves)", back.Epoch, epochOnB.Epoch)
	}
	if info := a.node.Replication().Info("olap"); info == nil || info.Role != api.RoleOwner || info.Term != 2 {
		t.Fatalf("A after the round trip = %+v, want owner at term 2", info)
	}
	// And B now tombstones it.
	_, err = b.node.Query("olap", api.QueryRequest{})
	if !errors.As(err, &ae) || ae.Code != api.CodeMoved || ae.Addr != a.ts.URL {
		t.Fatalf("B after handback = %v, want moved -> %s", err, a.ts.URL)
	}
	// Writes reach it on A again.
	if _, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(1)}}, true); err != nil {
		t.Fatal(err)
	}
}

func TestRouterShardUnavailable(t *testing.T) {
	a, _, rt := startFleet(t)

	a.ts.Close()
	_, err := rt.Query("olap", api.QueryRequest{Limit: 1})
	if codeOf(t, err) != api.CodeShardUnavailable {
		t.Fatalf("dead shard query = %v, want %s", err, api.CodeShardUnavailable)
	}

	h := rt.Health()
	if h.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", h.Status)
	}
	unreachable := 0
	for _, s := range h.Shards {
		if s.Status == "unreachable" {
			unreachable++
		}
	}
	if unreachable != 1 {
		t.Fatalf("unreachable shards = %d, want 1", unreachable)
	}

	// The surviving shard keeps serving through the router.
	if _, err := rt.Query("adhoc", api.QueryRequest{Limit: 1}); err != nil {
		t.Fatal(err)
	}

	// Refresh keeps the dead shard's placements (shard_unavailable is
	// honest; not_found would be a lie).
	rt.Refresh(context.Background())
	if rt.Placement()["olap"] == "" {
		t.Fatal("refresh dropped the unreachable shard's placement")
	}
}

func TestRendezvousPlacementAndRebalance(t *testing.T) {
	a, b, rt := startFleet(t)

	// Want is deterministic and spreads across configured shards.
	if w := rt.Want("olap"); w != a.ts.URL && w != b.ts.URL {
		t.Fatalf("Want(olap) = %q, not a fleet member", w)
	}
	if rt.Want("olap") != rt.Want("olap") {
		t.Fatal("Want is not stable")
	}

	// Pin both interfaces to shard B: rebalance must move olap (on A)
	// and skip adhoc (already on B).
	rt2, err := NewRouter([]string{a.ts.URL, b.ts.URL}, RouterOptions{
		Token:   testToken,
		Timeout: 10 * time.Second,
		Pins:    map[string]string{"olap": b.ts.URL, "adhoc": b.ts.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt2.Refresh(context.Background())
	res, err := rt2.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Moved) != 1 || res.Moved[0].ID != "olap" || res.Skipped != 1 {
		t.Fatalf("rebalance = %+v, want olap moved, adhoc skipped", res)
	}
	if rt2.Placement()["olap"] != b.ts.URL {
		t.Fatalf("placement after rebalance = %v", rt2.Placement())
	}
	_ = rt
}

// TestRefreshPrefersLiveClaims: a reachable shard that actually hosts
// an interface must win over a stale remembered placement on an
// unreachable shard, regardless of how the addresses sort — otherwise
// the interface would stay shard_unavailable despite a live owner.
func TestRefreshPrefersLiveClaims(t *testing.T) {
	a, b, rt := startFleet(t)

	// Kill A, then plant a stale placement claiming A owns adhoc (which
	// B really hosts) — the shape left behind by a crashed migration.
	a.ts.Close()
	rt.mu.Lock()
	rt.place["adhoc"] = a.ts.URL
	rt.mu.Unlock()

	rt.Refresh(context.Background())
	if got := rt.Placement()["adhoc"]; got != b.ts.URL {
		t.Fatalf("placement[adhoc] = %q, want live shard %q", got, b.ts.URL)
	}
	// And olap, genuinely on the dead shard, keeps its placement so
	// queries answer shard_unavailable rather than not_found.
	if got := rt.Placement()["olap"]; got != a.ts.URL {
		t.Fatalf("placement[olap] = %q, want remembered %q", got, a.ts.URL)
	}
}

func TestPinMustTargetConfiguredShard(t *testing.T) {
	a := startShard(t, "olap")
	_, err := NewRouter([]string{a.ts.URL}, RouterOptions{
		Pins: map[string]string{"olap": "http://127.0.0.1:1"},
	})
	if err == nil {
		t.Fatal("pin to an unconfigured shard accepted")
	}
}

func TestAdminSurfaceRequiresToken(t *testing.T) {
	a := startShard(t, "olap")
	resp, err := http.Get(a.ts.URL + "/v1/shard/load")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated admin load = %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, a.ts.URL+"/v1/shard/load", nil)
	req.Header.Set("Authorization", "Bearer "+testToken)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("authenticated admin load = %d, want 200", resp2.StatusCode)
	}
}

// frameOf captures the interface's current state on sh as a seed frame.
func frameOf(t testing.TB, sh *testShard, id string) ([]byte, *store.Snapshot) {
	t.Helper()
	snap, err := sh.ing.Capture(id)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := store.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return frame, snap
}

// TestReAcceptReplacesStaleCopy: a migration that stopped before its
// handoff leaves a follower copy on the target; when the source has
// moved on, the next seed must replace that copy — hosted at exactly
// the source's newer epoch and sequence — instead of failing on a
// duplicate ID forever.
func TestReAcceptReplacesStaleCopy(t *testing.T) {
	a, b, _ := startFleet(t)

	frame, _ := frameOf(t, a, "olap")
	first, err := b.node.Replication().Follow(frame, 0, a.ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.node.IngestLog("olap", []qlog.Entry{{SQL: "SELECT dest, count(*) FROM ontime WHERE carrier = 'UA' GROUP BY dest"}}, true); err != nil {
		t.Fatal(err)
	}
	frame2, snap2 := frameOf(t, a, "olap")
	second, err := b.node.Replication().Follow(frame2, 0, a.ts.URL)
	if err != nil {
		t.Fatalf("re-seed over a stale copy failed: %v", err)
	}
	if second.Epoch <= first.Epoch || second.Epoch != snap2.Epoch || second.Info.Seq != snap2.Seq {
		t.Fatalf("re-seeded copy at epoch %d seq %d (first %d), want the source's %d/%d",
			second.Epoch, second.Info.Seq, first.Epoch, snap2.Epoch, snap2.Seq)
	}
	got, err := b.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != second.Epoch {
		t.Fatalf("B serves epoch %d, want %d", got.Epoch, second.Epoch)
	}
}

func TestAcceptRejectsCorruptFrame(t *testing.T) {
	b := startShard(t, "adhoc")
	_, err := b.node.Replication().Follow([]byte("not a snapshot frame"), 0, "http://127.0.0.1:1")
	if codeOf(t, err) != api.CodeBadRequest {
		t.Fatalf("corrupt frame = %v, want bad_request", err)
	}
	if _, err := b.node.Query("adhoc", api.QueryRequest{Limit: 1}); err != nil {
		t.Fatalf("a refused seed disturbed what the shard serves: %v", err)
	}
}
