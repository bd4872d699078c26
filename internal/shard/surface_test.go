package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/pi/client"
)

// serveRouter mounts rt the way pi-router does: bearer auth, the
// process metrics, a slow ring that records every routed query and the
// router-admin surface. It returns the server and an SDK pointed at it.
func serveRouter(t *testing.T, rt *Router) (*httptest.Server, *client.Client) {
	t.Helper()
	ring := obs.NewSlowRing(16, 0, 1)
	rt.SetSlowRing(ring)
	auth := server.AuthConfig{Token: testToken}
	ts := httptest.NewServer(server.New(rt,
		server.WithAuth(auth),
		server.WithMetrics(obs.Default),
		server.WithSlowRing(ring),
		server.WithAdmin("/v1/router/", rt.AdminHandler(auth)),
	).Handler())
	t.Cleanup(ts.Close)
	return ts, sdk(t, ts.URL)
}

func sdk(t *testing.T, base string) *client.Client {
	t.Helper()
	c, err := client.New(base, client.WithToken(testToken))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// call makes one raw request with an optional bearer token and returns
// the status and body.
func call(t *testing.T, method, url, token, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultTransport.RoundTrip(req) // no redirects followed
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decode(t *testing.T, raw []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

// waitGone polls until sh no longer hosts id.
func waitGone(t *testing.T, sh *testShard, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		_, err := sh.node.GetInterface(id)
		var ae *api.Error
		if errors.As(err, &ae) && ae.Code == api.CodeNotFound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still hosts %q: %v", sh.ts.URL, id, err)
		}
	}
}

// TestRouterOverHTTP drives pi-router's v1 surface through pi/client:
// reads proxy to the owner, writes check ingestion first, fleet-wide
// operations fan out, and deletes drop the placement.
func TestRouterOverHTTP(t *testing.T) {
	a, b, rt := startFleet(t)
	ts, c := serveRouter(t, rt)
	direct := sdk(t, a.ts.URL)
	ctx := context.Background()

	page, err := c.Page(ctx, "olap")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := direct.Page(ctx, "olap"); err != nil || page != want {
		t.Fatalf("routed page differs from the owner's (%d vs %d bytes, %v)", len(page), len(want), err)
	}
	epoch, err := c.Epoch(ctx, "olap")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := direct.Epoch(ctx, "olap"); err != nil || epoch != want {
		t.Fatalf("routed epoch = %d, owner's = %d (%v)", epoch, want, err)
	}

	ack, err := c.IngestSQL(ctx, "olap", false, "SELECT carrier FROM ontime WHERE month = 4")
	if err != nil {
		t.Fatal(err)
	}
	if now, err := direct.Epoch(ctx, "olap"); err != nil || ack.Epoch <= epoch || now != ack.Epoch {
		t.Fatalf("ingest ack epoch %d after %d; owner serves %d (%v)", ack.Epoch, epoch, now, err)
	}
	if _, err := c.IngestSQL(ctx, "nope", false, "SELECT 1"); codeOf(t, err) != api.CodeNotFound {
		t.Fatalf("ingest into an unknown interface = %v, want not_found", err)
	}

	dbg, err := c.Debug(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbg.Interfaces) != 2 || dbg.Interfaces[0].ID != "adhoc" || dbg.Interfaces[1].ID != "olap" {
		t.Fatalf("fan-out debug = %+v, want adhoc and olap", dbg.Interfaces)
	}
	if _, err := c.Snapshot(ctx); codeOf(t, err) != api.CodePersistenceDisabled {
		t.Fatalf("snapshot over shards without a data dir = %v, want persistence_disabled", err)
	}

	if _, err := c.Query(ctx, "olap", api.QueryRequest{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	var slow obs.SlowReport
	code, raw := call(t, http.MethodGet, ts.URL+"/v1/debug/slow", "", "")
	decode(t, raw, &slow)
	if code != http.StatusOK || len(slow.Entries) == 0 || slow.Entries[0].Source != "router" || slow.Entries[0].Interface != "olap" {
		t.Fatalf("slow ring after a routed query: %d %+v", code, slow)
	}

	code, raw = call(t, http.MethodGet, ts.URL+"/v1/metrics", "", "")
	for _, want := range []string{
		fmt.Sprintf("pi_router_shard_interfaces{shard=%q} 1", a.ts.URL),
		fmt.Sprintf("pi_router_shard_interfaces{shard=%q} 1", b.ts.URL),
	} {
		if code != http.StatusOK || !strings.Contains(string(raw), want) {
			t.Fatalf("scrape (%d) lacks %s", code, want)
		}
	}

	code, _ = call(t, http.MethodGet, ts.URL+"/", "", "")
	if code != http.StatusFound {
		t.Fatalf("GET / = %d, want a redirect to the interface list", code)
	}

	del, err := c.DeleteInterface(ctx, "adhoc")
	if err != nil || !del.Deleted {
		t.Fatalf("routed delete = %+v, %v", del, err)
	}
	if _, ok := rt.Placement()["adhoc"]; ok {
		t.Fatal("placement still routes the deleted interface")
	}
	if _, err := c.GetInterface(ctx, "adhoc"); codeOf(t, err) != api.CodeNotFound {
		t.Fatalf("deleted interface = %v, want not_found", err)
	}

	// An owner that lost the interface behind the router's back answers
	// not_found, and the router stops routing there.
	if _, err := direct.DeleteInterface(ctx, "olap"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "olap", api.QueryRequest{}); codeOf(t, err) != api.CodeNotFound {
		t.Fatalf("query after the owner dropped it = %v, want not_found", err)
	}
	if _, ok := rt.Placement()["olap"]; ok {
		t.Fatal("placement still routes to a shard that answered not_found")
	}
}

// TestRouterAdminOverHTTP: every router-admin route wants the token,
// and with it reports the fleet the router sees.
func TestRouterAdminOverHTTP(t *testing.T) {
	a, b, rt := startFleet(t)
	ts, _ := serveRouter(t, rt)

	routes := []struct{ method, path string }{
		{http.MethodGet, "/v1/router/shards"},
		{http.MethodPost, "/v1/router/refresh"},
		{http.MethodGet, "/v1/router/replication"},
	}
	for _, r := range routes {
		if code, _ := call(t, r.method, ts.URL+r.path, "", ""); code != http.StatusUnauthorized {
			t.Errorf("%s %s without a token = %d, want 401", r.method, r.path, code)
		}
		if code, _ := call(t, r.method, ts.URL+r.path, "wrong", ""); code != http.StatusForbidden {
			t.Errorf("%s %s with a wrong token = %d, want 403", r.method, r.path, code)
		}
	}

	wantPlace := map[string]string{"olap": a.ts.URL, "adhoc": b.ts.URL}
	for _, path := range []string{"/v1/router/shards", "/v1/router/refresh"} {
		method := http.MethodGet
		if path == "/v1/router/refresh" {
			method = http.MethodPost
		}
		code, raw := call(t, method, ts.URL+path, testToken, "")
		var st RouterStatus
		decode(t, raw, &st)
		if code != http.StatusOK || st.Interfaces != 2 || len(st.Shards) != 2 {
			t.Fatalf("%s = %d %+v", path, code, st)
		}
		for _, s := range st.Shards {
			if s.Status != "ok" || s.Interfaces != 1 {
				t.Fatalf("%s shard row %+v, want ok with one interface", path, s)
			}
		}
		for id, addr := range wantPlace {
			if st.Placement[id] != addr {
				t.Fatalf("%s placement = %v, want %v", path, st.Placement, wantPlace)
			}
		}
	}

	code, raw := call(t, http.MethodGet, ts.URL+"/v1/router/replication", testToken, "")
	var rs ReplicationStatus
	decode(t, raw, &rs)
	if code != http.StatusOK || len(rs.Interfaces) != 2 {
		t.Fatalf("replication = %d %+v", code, rs)
	}
	for id, addr := range wantPlace {
		if rs.Interfaces[id].Owner != addr {
			t.Fatalf("replication owners = %+v, want %v", rs.Interfaces, wantPlace)
		}
	}
}

// TestShardReplicationSurface: GET /v1/shard/replication lists what a
// shard replicates, and an owner retargeted away from its follower
// makes it drop its copy.
func TestShardReplicationSurface(t *testing.T) {
	shards, _ := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2})
	owner, peer := shards[0], shards[1]
	waitSynced(t, owner, "olap", 1)

	if code, _ := call(t, http.MethodGet, owner.ts.URL+"/v1/shard/replication", "", ""); code != http.StatusUnauthorized {
		t.Fatalf("replication status without a token = %d, want 401", code)
	}
	for _, c := range []struct {
		sh   *testShard
		role string
	}{{owner, api.RoleOwner}, {peer, api.RoleFollower}} {
		code, raw := call(t, http.MethodGet, c.sh.ts.URL+"/v1/shard/replication", testToken, "")
		var all []replica.StatusResponse
		decode(t, raw, &all)
		if code != http.StatusOK || len(all) != 1 || all[0].ID != "olap" || all[0].Info.Role != c.role {
			t.Fatalf("%s replication = %d %+v, want olap as %s", c.sh.ts.URL, code, all, c.role)
		}
	}

	code, raw := call(t, http.MethodPost, owner.ts.URL+"/v1/shard/interfaces/olap/targets", testToken, `{"targets":[]}`)
	var st replica.StatusResponse
	decode(t, raw, &st)
	if code != http.StatusOK || len(st.Info.Followers) != 0 {
		t.Fatalf("retarget to no followers = %d %+v", code, st)
	}
	waitGone(t, peer, "olap")
}

// TestDeleteReplicatedOwner: deleting an interface on its owner tears
// the replica set down, so no follower keeps serving it.
func TestDeleteReplicatedOwner(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2})
	waitSynced(t, shards[0], "olap", 1)
	_, c := serveRouter(t, rt)

	if del, err := c.DeleteInterface(context.Background(), "olap"); err != nil || !del.Deleted {
		t.Fatalf("delete = %+v, %v", del, err)
	}
	waitGone(t, shards[1], "olap")
}
