package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/store"
)

// nodeOp is one per-interface Servicer operation on "olap", classed as
// a read or a write.
type nodeOp struct {
	name  string
	write bool
	call  func(n *Node) error
}

func nodeOps() []nodeOp {
	q := api.QueryRequest{Limit: 1}
	return []nodeOp{
		{"GetInterface", false, func(n *Node) error { _, err := n.GetInterface("olap"); return err }},
		{"Epoch", false, func(n *Node) error { _, err := n.Epoch("olap"); return err }},
		{"Page", false, func(n *Node) error { _, err := n.Page("olap"); return err }},
		{"Query", false, func(n *Node) error { _, err := n.Query("olap", q); return err }},
		{"QueryIntoCtx", false, func(n *Node) error {
			var resp api.QueryResponse
			return n.QueryIntoCtx(context.Background(), "olap", q, &resp)
		}},
		{"IngestReady", true, func(n *Node) error { return n.IngestReady("olap") }},
		{"IngestLog", true, func(n *Node) error {
			_, err := n.IngestLog("olap", []qlog.Entry{{SQL: "SELECT Day FROM ontime"}}, false)
			return err
		}},
		{"AppendRows", true, func(n *Node) error {
			_, err := n.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(1)}}, false)
			return err
		}},
		{"MutateRows", true, func(n *Node) error {
			_, err := n.MutateRows("olap", api.MutateRequest{SQL: "DELETE FROM ontime WHERE Day = 1"})
			return err
		}},
		{"DeleteInterface", true, func(n *Node) error { _, err := n.DeleteInterface("olap"); return err }},
	}
}

// TestNodeGatesEveryOp: every per-interface operation answers moved
// for a tombstoned interface, not_owner for a write on a follower and
// replica_lagging for a read on a stale follower — each naming the
// owner — while an in-sync follower serves reads.
func TestNodeGatesEveryOp(t *testing.T) {
	const owner = "http://owner:8080"
	follower := func(stale bool) func(n *Node) {
		return func(n *Node) {
			n.mgr.RestoreState("olap", &store.ReplState{Role: api.RoleFollower, Term: 2, Owner: owner}, 0)
			if stale {
				// An event past a gap leaves the copy awaiting a re-seed.
				err := n.mgr.Apply("olap", 2, owner, ingest.Publication{Seq: 7, Epoch: 8})
				if codeOf(t, err) != api.CodeReplicaOutOfSync {
					t.Fatalf("gap event = %v, want replica_out_of_sync", err)
				}
			}
		}
	}
	states := []struct {
		name        string
		setup       func(n *Node)
		read, write string // the code each class answers ("" = served)
	}{
		{"tombstone", func(n *Node) { n.setTombstone("olap", owner) }, api.CodeMoved, api.CodeMoved},
		{"follower", follower(false), "", api.CodeNotOwner},
		{"stale follower", follower(true), api.CodeReplicaLagging, api.CodeNotOwner},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			// No op below is served destructively (writes are all
			// refused here), so one shard carries the whole table.
			n := startShard(t, "olap").node
			st.setup(n)
			for _, op := range nodeOps() {
				want := st.read
				if op.write {
					want = st.write
				}
				err := op.call(n)
				if want == "" {
					if err != nil {
						t.Errorf("%s = %v, want served", op.name, err)
					}
					continue
				}
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != want || ae.Addr != owner {
					t.Errorf("%s = %v, want %s naming %s", op.name, err, want, owner)
				}
			}
		})
	}
}

// TestDeleteRacingHandoffAnswersMoved: a delete that passed the gate
// just before a handoff tombstoned and dropped the copy finds the
// interface gone; like every other op it answers moved to the new
// owner, not not_found (which routers read as "drop the placement").
func TestDeleteRacingHandoffAnswersMoved(t *testing.T) {
	n := startShard(t, "olap").node
	const to = "http://new-owner:8080"
	_, err := gate(n, "olap", true, func() (*api.DeleteAck, error) {
		n.demoteLocal("olap", to) // lands between the gate and the delete
		return n.Service.DeleteInterface("olap")
	})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeMoved || ae.Addr != to {
		t.Fatalf("delete racing a handoff = %v, want moved -> %s", err, to)
	}
}

// TestNodeQueryIntoCtxCachedAllocs: the shard's gate keeps the
// serving query path allocation-free once the plan and result are
// cached.
func TestNodeQueryIntoCtxCachedAllocs(t *testing.T) {
	n := startShard(t, "olap").node
	req := api.QueryRequest{Limit: 1}
	var resp api.QueryResponse
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := n.QueryIntoCtx(ctx, "olap", req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if resp.Plan != "hit" || resp.Cache != "hit" {
		t.Fatalf("warmup did not reach the cached path: plan=%s cache=%s", resp.Plan, resp.Cache)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := n.QueryIntoCtx(ctx, "olap", req, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Node.QueryIntoCtx on the cached path allocates %.1f objects per call, want 0", allocs)
	}
}

// TestAdminUnauthorizedEnvelope: a 401 from the shard- and router-admin
// surfaces is the v1 one — the Bearer challenge, the request's trace id
// in the envelope — and an id-less route does not name an interface.
func TestAdminUnauthorizedEnvelope(t *testing.T) {
	a, _, rt := startFleet(t)
	ts, _ := serveRouter(t, rt)
	routes := []struct {
		method, url, msg string
	}{
		{http.MethodGet, ts.URL + "/v1/router/shards", "this endpoint requires a bearer token"},
		{http.MethodPost, ts.URL + "/v1/router/failover", "this endpoint requires a bearer token"},
		{http.MethodGet, a.ts.URL + "/v1/shard/load", "this endpoint requires a bearer token"},
		{http.MethodPost, a.ts.URL + "/v1/shard/interfaces/olap/promote", `interface "olap" requires a bearer token`},
	}
	for _, rc := range routes {
		for _, token := range []string{"", "wrong"} {
			req, err := http.NewRequest(rc.method, rc.url, nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(obs.TraceHeader, "t-1")
			if token != "" {
				req.Header.Set("Authorization", "Bearer "+token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var e api.Error
			_ = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if e.TraceID != "t-1" {
				t.Errorf("%s %s (token %q): envelope traceId %q, want t-1", rc.method, rc.url, token, e.TraceID)
			}
			challenge := resp.Header.Get("WWW-Authenticate")
			if token != "" {
				if resp.StatusCode != http.StatusForbidden || challenge != "" {
					t.Errorf("%s %s with a wrong token = %d (challenge %q), want 403", rc.method, rc.url, resp.StatusCode, challenge)
				}
				continue
			}
			if resp.StatusCode != http.StatusUnauthorized || e.Code != api.CodeUnauthorized ||
				challenge != `Bearer realm="pi"` || e.Message != rc.msg {
				t.Errorf("%s %s without a token = %d %s %q (challenge %q), want 401 %q with the Bearer challenge",
					rc.method, rc.url, resp.StatusCode, e.Code, e.Message, challenge, rc.msg)
			}
		}
	}
}
