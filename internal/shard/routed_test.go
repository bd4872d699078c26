package shard

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/qlog"
)

// routerOp is one per-interface Servicer operation on "olap" through
// the router, with its routing class: reads may fan out to followers
// and are retried on a promoted owner; writes go to the owner only.
type routerOp struct {
	name string
	read bool
	call func(rt *Router) error
}

func routerOps() []routerOp {
	q := api.QueryRequest{Limit: 1}
	return []routerOp{
		{"Epoch", true, func(rt *Router) error { _, err := rt.Epoch("olap"); return err }},
		{"Page", true, func(rt *Router) error { _, err := rt.Page("olap"); return err }},
		{"Query", true, func(rt *Router) error { _, err := rt.Query("olap", q); return err }},
		{"QueryIntoCtx", true, func(rt *Router) error {
			var resp api.QueryResponse
			return rt.QueryIntoCtx(context.Background(), "olap", q, &resp)
		}},
		{"GetInterface", false, func(rt *Router) error { _, err := rt.GetInterface("olap"); return err }},
		{"IngestLog", false, func(rt *Router) error {
			_, err := rt.IngestLog("olap", []qlog.Entry{{SQL: "SELECT Day FROM ontime"}}, false)
			return err
		}},
		{"AppendRows", false, func(rt *Router) error {
			_, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(1)}}, false)
			return err
		}},
		{"MutateRows", false, func(rt *Router) error {
			_, err := rt.MutateRows("olap", api.MutateRequest{SQL: "DELETE FROM ontime WHERE Day = 1"})
			return err
		}},
		{"DeleteInterface", false, func(rt *Router) error { _, err := rt.DeleteInterface("olap"); return err }},
	}
}

// syncedPair boots an owner of olap and one synced follower behind a
// refreshed router with the given policy (replication factor 2).
func syncedPair(t *testing.T, opts RouterOptions) (owner, follower *testShard, rt *Router) {
	t.Helper()
	opts.Replicas = 2
	shards, rt := startReplicatedFleet(t, 2, opts)
	follower = shardByAddr(t, shards, waitSynced(t, shards[0], "olap", 1)[0])
	rt.Refresh(context.Background()) // pick up the synced follower set
	return shards[0], follower, rt
}

// TestRoutedOpClasses pins each per-interface router operation's
// routing class. With fan-out on, the first read of a fresh rotation
// lands on the follower and a write never does. When the owner stops
// answering mid-call with failover on, a read is re-run on the
// promoted follower and succeeds, while a write answers
// shard_unavailable (the dead owner may have applied it).
func TestRoutedOpClasses(t *testing.T) {
	for _, op := range routerOps() {
		t.Run(op.name, func(t *testing.T) {
			_, fo, rt := syncedPair(t, RouterOptions{ReadFanout: true})
			var hits atomic.Int64
			fo.wrap(func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/v1/interfaces/") {
						hits.Add(1)
					}
					next.ServeHTTP(w, r)
				})
			})
			if err := op.call(rt); err != nil {
				t.Fatalf("with fan-out: %v", err)
			}
			if want := map[bool]int64{true: 1, false: 0}[op.read]; hits.Load() != want {
				t.Fatalf("with fan-out the follower served %d calls, want %d", hits.Load(), want)
			}

			owner, fo, rt := syncedPair(t, RouterOptions{Failover: true})
			owner.wrap(func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasPrefix(r.URL.Path, "/v1/interfaces/") {
						panic(http.ErrAbortHandler) // the owner dies mid-call
					}
					next.ServeHTTP(w, r)
				})
			})
			err := op.call(rt)
			if op.read && err != nil {
				t.Fatalf("read after a mid-call promotion = %v, want it served by the new owner", err)
			}
			if !op.read && codeOf(t, err) != api.CodeShardUnavailable {
				t.Fatalf("write after a mid-call promotion = %v, want shard_unavailable", err)
			}
			if got := rt.Placement()["olap"]; got != fo.ts.URL {
				t.Fatalf("placement after the failover = %q, want the promoted follower %s", got, fo.ts.URL)
			}
		})
	}
}
