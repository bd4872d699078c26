package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// tableRows counts one table's rows in the interface on sh.
func tableRows(t testing.TB, sh *testShard, id, table string) int {
	t.Helper()
	snap, err := sh.ing.Capture(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, td := range snap.Tables {
		if td.Name == table {
			return len(td.Rows)
		}
	}
	t.Fatalf("%s has no table %q", id, table)
	return 0
}

// TestMigrateUnderLoadNoLostAcks is the planned-move twin of
// TestFailoverUnderLoadNoLostAcks: two writers append rows and a reader
// queries through the router while the interface is migrated back and
// forth. Every ack, sent with flush:true or flush:false (which the
// server ignores: both publish before the ack), must be a row on the
// new owner when Migrate returns,
// no write and no read may fail, the old owner must answer moved, and
// a cursor minted before the move must expire.
func TestMigrateUnderLoadNoLostAcks(t *testing.T) {
	for _, flush := range []bool{true, false} {
		t.Run(fmt.Sprintf("flush=%v", flush), func(t *testing.T) {
			a, b, rt := startFleet(t)
			from, to := b, a // adhoc starts on B; it paginates, olap does not
			for round := 0; round < 5; round++ {
				first, err := rt.Query("adhoc", api.QueryRequest{Limit: 2})
				if err != nil || first.NextCursor == "" {
					t.Fatalf("round %d: mint cursor: %v (%+v)", round, err, first)
				}
				startRows := tableRows(t, from, "adhoc", "ontime")

				var acked, failed atomic.Int64
				var firstErr atomic.Value
				stop := make(chan struct{})
				var wg sync.WaitGroup
				loop := func(op func() error) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := op(); err != nil {
							failed.Add(1)
							firstErr.CompareAndSwap(nil, err.Error())
						}
					}
				}
				wg.Add(3)
				for w := 0; w < 2; w++ {
					go loop(func() error {
						_, err := rt.AppendRows("adhoc", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(round)}}, flush)
						if err == nil {
							acked.Add(1)
						}
						return err
					})
				}
				go loop(func() error {
					_, err := rt.Query("adhoc", api.QueryRequest{Limit: 1})
					return err
				})

				time.Sleep(10 * time.Millisecond)
				res, err := rt.Migrate(context.Background(), "adhoc", to.ts.URL)
				time.Sleep(10 * time.Millisecond) // traffic keeps flowing onto the new owner
				close(stop)
				wg.Wait()
				if err != nil {
					t.Fatalf("round %d: migrate under load: %v", round, err)
				}
				if res.From != from.ts.URL || res.To != to.ts.URL {
					t.Fatalf("round %d: result %+v", round, res)
				}
				if n := failed.Load(); n != 0 {
					t.Fatalf("round %d: %d requests failed during the move (first: %v)", round, n, firstErr.Load())
				}
				if got, want := tableRows(t, to, "adhoc", "ontime")-startRows, int(acked.Load()); got != want {
					t.Fatalf("round %d: new owner gained %d rows, %d were acked", round, got, want)
				}
				_, err = from.node.Query("adhoc", api.QueryRequest{Limit: 1})
				var ae *api.Error
				if !errors.As(err, &ae) || ae.Code != api.CodeMoved || ae.Addr != to.ts.URL {
					t.Fatalf("round %d: old owner answers %v, want moved -> %s", round, err, to.ts.URL)
				}
				_, err = rt.Query("adhoc", api.QueryRequest{Limit: 2, Cursor: first.NextCursor})
				if codeOf(t, err) != api.CodeCursorExpired {
					t.Fatalf("round %d: pre-move cursor = %v, want %s", round, err, api.CodeCursorExpired)
				}
				from, to = to, from
			}
		})
	}
}

// TestMigratedCopyByteIdentical: a quiesced interface with every kind
// of publication in its history arrives on the new owner as exactly the
// old owner's bytes plus the one fence bump (Seq and Epoch + 1).
func TestMigratedCopyByteIdentical(t *testing.T) {
	a, b, rt := startFleet(t)
	db := engine.OnTimeDB(200)
	u := engine.NewTable("u", "k")
	if err := u.AddRow(engine.Num(1)); err != nil {
		t.Fatal(err)
	}
	db.AddTable(u)
	olap, _ := fixtureLogs(t)
	if _, err := a.ing.Host("two", "two tables", olap, db, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	rt.Refresh(context.Background())

	if _, err := rt.IngestLog("two", []qlog.Entry{{SQL: "SELECT dest, count(*) FROM ontime WHERE carrier = 'AA' GROUP BY dest"}}, true); err != nil {
		t.Fatal(err)
	}
	// One row publication per table (flush is ignored either way).
	if _, err := rt.AppendRows("two", api.RowsRequest{Table: "u", Rows: [][]any{{2.0}, {3.0}}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AppendRows("two", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(1), ontimeRow(2)}}, true); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"UPDATE u SET k = 30 WHERE k = 3", "DELETE FROM ontime WHERE distance = 501"} {
		ack, err := rt.MutateRows("two", api.MutateRequest{SQL: sql})
		if err != nil || ack.Matched == 0 {
			t.Fatalf("%s: %v (%+v)", sql, err, ack)
		}
	}

	_, want := frameOf(t, a, "two")
	if _, err := rt.Migrate(context.Background(), "two", b.ts.URL); err != nil {
		t.Fatal(err)
	}
	got, _ := frameOf(t, b, "two")
	want.Seq++
	want.Epoch++
	wantFrame, err := store.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantFrame) {
		gotSnap, _ := store.Decode(got)
		t.Fatalf("new owner's copy differs from the old owner's + one bump: got seq %d epoch %d data epoch %d (%d bytes), want seq %d epoch %d data epoch %d (%d bytes)",
			gotSnap.Seq, gotSnap.Epoch, gotSnap.DataEpoch, len(got), want.Seq, want.Epoch, want.DataEpoch, len(wantFrame))
	}
}

// TestMigrateLostPromoteResponse: the target performs the promote and
// then the connection drops, so the owner never learns it handed off.
// Migrate must report failure, every write acked before the move must
// be on the promoted copy, and term fencing — not a hand-written
// settle — must leave exactly one owner after a refresh.
func TestMigrateLostPromoteResponse(t *testing.T) {
	a, b, rt := startFleet(t)
	startRows := tableRows(t, a, "olap", "ontime")
	acked := 0
	for i := 0; i < 6; i++ {
		// With and without ?flush alike: both publish before the ack.
		if _, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(i)}}, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		acked++
	}

	b.wrap(func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/promote") {
				next.ServeHTTP(httptest.NewRecorder(), r)
				panic(http.ErrAbortHandler) // the promote happened; its response is lost
			}
			next.ServeHTTP(w, r)
		})
	})
	_, err := rt.Migrate(context.Background(), "olap", b.ts.URL)
	if code := codeOf(t, err); code != api.CodeShardUnavailable {
		t.Fatalf("migrate with a lost promote response = %v (%s), want %s", err, code, api.CodeShardUnavailable)
	}
	if got := tableRows(t, b, "olap", "ontime") - startRows; got != acked {
		t.Fatalf("promoted copy holds %d of %d acked rows", got, acked)
	}

	// Two owner claims now: A (unsealed, older term) and B (term+1). One
	// refresh resolves them by term; A converges to answering moved.
	rt.Refresh(context.Background())
	if got := rt.Placement()["olap"]; got != b.ts.URL {
		t.Fatalf("placement after refresh = %q, want the higher term's %q", got, b.ts.URL)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, qerr := a.node.Query("olap", api.QueryRequest{Limit: 1})
		var qe *api.Error
		if errors.As(qerr, &qe) && qe.Code == api.CodeMoved && qe.Addr == b.ts.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ex-owner never tombstoned: %v", qerr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if info := b.node.Replication().Info("olap"); info == nil || info.Role != api.RoleOwner || info.Term != 1 {
		t.Fatalf("B = %+v, want owner at term 1", info)
	}
	if _, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(7)}}, true); err != nil {
		t.Fatalf("write after the settled move: %v", err)
	}
	if got := tableRows(t, b, "olap", "ontime") - startRows; got != acked+1 {
		t.Fatalf("sole owner holds %d rows past the start, want %d", got, acked+1)
	}
}

// TestMigrateOntoFollowerShipsNoSeed: at RF 2 the follower already
// holds the stream; making it the owner is a handoff, not a copy.
func TestMigrateOntoFollowerShipsNoSeed(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2})
	owner := shards[0]
	fo := shardByAddr(t, shards, waitSynced(t, owner, "olap", 1)[0])
	var seeds atomic.Int64
	fo.wrap(func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/follow") {
				seeds.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	if info := owner.node.Replication().Info("olap"); info.Seeds != 1 {
		t.Fatalf("owner shipped %d seeds before the move, want 1", info.Seeds)
	}

	if _, err := rt.Migrate(context.Background(), "olap", fo.ts.URL); err != nil {
		t.Fatal(err)
	}
	if n := seeds.Load(); n != 0 {
		t.Fatalf("migrating onto the synced follower shipped %d seed frame(s)", n)
	}
	if info := fo.node.Replication().Info("olap"); info == nil || info.Role != api.RoleOwner {
		t.Fatalf("follower after the move = %+v, want owner", info)
	}
	// The refresh loop then heals the replica set onto the ex-owner.
	rt.Refresh(context.Background())
	if synced := waitSynced(t, fo, "olap", 1); synced[0] != owner.ts.URL {
		t.Fatalf("replacement follower at %q, want the ex-owner %q", synced[0], owner.ts.URL)
	}
}
