package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/pi/client"
)

// ontimeRow is one valid row for the fixture's ontime table (16
// columns, positionally matching engine.OnTimeDB).
func ontimeRow(i int) []any {
	return []any{
		"AA", "AA", "CAP", "NYP", "CA", "NY",
		float64(1 + i%12), float64(1 + i%28), float64(1 + i%7),
		float64(i % 120), float64(i % 110), float64(i % 100),
		float64(500 + i), float64(1), float64(0), float64(0),
	}
}

// startReplicatedFleet boots one shard hosting olap plus n-1 empty
// shards, fronted by a refreshed router with the given replication
// policy. The empty shards are what a real fleet's standby processes
// look like: nothing hosted until the router seeds them.
func startReplicatedFleet(t testing.TB, n int, opts RouterOptions) ([]*testShard, *Router) {
	t.Helper()
	shards := []*testShard{startShard(t, "olap")}
	for i := 1; i < n; i++ {
		shards = append(shards, startShard(t))
	}
	addrs := make([]string, len(shards))
	for i, s := range shards {
		addrs[i] = s.ts.URL
	}
	opts.Token = testToken
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	rt, err := NewRouter(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Refresh(context.Background())
	return shards, rt
}

// waitSynced polls the owner's replication view until want followers
// report in sync, returning their addresses.
func waitSynced(t testing.TB, owner *testShard, id string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var synced []string
		if info := owner.node.Replication().Info(id); info != nil {
			for _, f := range info.Followers {
				if f.Synced {
					synced = append(synced, f.Addr)
				}
			}
		}
		if len(synced) >= want {
			return synced
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never reported %d synced follower(s) of %q: %+v",
				want, id, owner.node.Replication().Info(id))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// shardByAddr finds the test shard serving at addr.
func shardByAddr(t testing.TB, shards []*testShard, addr string) *testShard {
	t.Helper()
	for _, s := range shards {
		if s.ts.URL == addr {
			return s
		}
	}
	t.Fatalf("no test shard at %q", addr)
	return nil
}

// TestReplicationSeedsAndStreams: the tentpole's data plane. A refresh
// seeds a warm follower from a snapshot frame, and every acked write
// afterwards reaches it before the ack returns — follower epoch, seq
// and query results stay in lockstep with the owner.
func TestReplicationSeedsAndStreams(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2})
	owner := shards[0]

	synced := waitSynced(t, owner, "olap", 1)
	fo := shardByAddr(t, shards, synced[0])

	// The follower hosts a live copy and knows its role.
	info := fo.node.Replication().Info("olap")
	if info == nil || info.Role != api.RoleFollower || info.Owner != owner.ts.URL {
		t.Fatalf("follower replication info = %+v", info)
	}
	oe, err := owner.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := fo.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}
	if fe.Epoch != oe.Epoch {
		t.Fatalf("seeded follower epoch %d, owner %d (want lockstep)", fe.Epoch, oe.Epoch)
	}

	// An acked log ingest is on the follower BY THE TIME the ack
	// returns — replication is ack-coupled, not eventual.
	ack, err := rt.IngestLog("olap", []qlog.Entry{
		{SQL: "SELECT dest, count(*) FROM ontime WHERE carrier = 'AA' GROUP BY dest"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	fe2, err := fo.node.Epoch("olap")
	if err != nil {
		t.Fatal(err)
	}
	if fe2.Epoch != ack.Epoch {
		t.Fatalf("follower epoch %d after acked ingest at epoch %d", fe2.Epoch, ack.Epoch)
	}

	// Acked row appends replicate the same way.
	rack, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(1)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := fo.node.Query("olap", api.QueryRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fq.Epoch != rack.Epoch {
		t.Fatalf("follower serves epoch %d after acked append at %d", fq.Epoch, rack.Epoch)
	}

	// Identical results from both replicas.
	oq, err := owner.node.Query("olap", api.QueryRequest{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	fq10, err := fo.node.Query("olap", api.QueryRequest{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if oq.SQL != fq10.SQL || oq.RowCount != fq10.RowCount {
		t.Fatalf("replica diverged: owner %d rows (%s), follower %d rows (%s)",
			oq.RowCount, oq.SQL, fq10.RowCount, fq10.SQL)
	}

	// Writes sent to the follower bounce with not_owner naming the
	// owner — and the SDK follows that just like moved.
	_, err = fo.node.IngestLog("olap", []qlog.Entry{{SQL: "SELECT 1 FROM ontime"}}, true)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotOwner || ae.Addr != owner.ts.URL {
		t.Fatalf("follower write = %v, want not_owner -> %s", err, owner.ts.URL)
	}
	c, err := client.New(fo.ts.URL, client.WithToken(testToken))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestLog(context.Background(), "olap",
		[]api.LogEntry{{SQL: "SELECT carrier, count(*) FROM ontime GROUP BY carrier"}}, true); err != nil {
		t.Fatalf("SDK did not follow not_owner: %v", err)
	}
}

// TestReplicationHealthSurface: the fleet health view lists each
// replicated interface once (the owner's row wins), carrying the
// replication block, and flags the fleet as replication-enabled.
func TestReplicationHealthSurface(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2})
	waitSynced(t, shards[0], "olap", 1)
	rt.Refresh(context.Background()) // pick up the now-synced follower set

	h := rt.Health()
	if !h.Replication {
		t.Fatal("fleet health does not report replication")
	}
	var rows int
	for _, row := range h.Interfaces {
		if row.ID != "olap" {
			continue
		}
		rows++
		if row.Replication == nil || row.Replication.Role != api.RoleOwner {
			t.Fatalf("merged health row = %+v, want the owner's view", row.Replication)
		}
		if len(row.Replication.Followers) != 1 || !row.Replication.Followers[0].Synced {
			t.Fatalf("owner's follower list = %+v", row.Replication.Followers)
		}
	}
	if rows != 1 {
		t.Fatalf("olap appears %d times in fleet health, want once", rows)
	}

	rs := rt.Replication()
	if rs.Replicas != 2 || len(rs.Interfaces["olap"].Followers) != 1 {
		t.Fatalf("router replication status = %+v", rs)
	}
}

// TestPromoteFencesExOwner: after a forced failover the old owner's
// next write is rejected by the promoted replica's newer term, which
// fences the ex-owner — it demotes itself and answers moved/not_owner
// rather than ever accepting a write the new owner would not see. This
// is the partitioned-owner scenario: the ex-owner is alive and thinks
// it still owns the interface.
func TestPromoteFencesExOwner(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2, Failover: true})
	owner := shards[0]
	synced := waitSynced(t, owner, "olap", 1)
	promoted := shardByAddr(t, shards, synced[0])

	newOwner, apiErr := rt.FailoverInterface("olap")
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if newOwner != promoted.ts.URL {
		t.Fatalf("failover promoted %q, want the synced follower %q", newOwner, promoted.ts.URL)
	}
	if got := rt.Placement()["olap"]; got != promoted.ts.URL {
		t.Fatalf("placement = %q after failover", got)
	}
	info := promoted.node.Replication().Info("olap")
	if info == nil || info.Role != api.RoleOwner || info.Term == 0 {
		t.Fatalf("promoted info = %+v, want owner at term > 0", info)
	}

	// The ex-owner still believes it owns the interface; its next write
	// reaches the promoted replica, loses the term comparison, and the
	// rejection fences it.
	_, err := owner.node.IngestLog("olap", []qlog.Entry{{SQL: "SELECT 1 FROM ontime"}}, true)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotOwner || ae.Addr != promoted.ts.URL {
		t.Fatalf("fenced write = %v, want not_owner -> %s", err, promoted.ts.URL)
	}
	// Fencing demotes the ex-owner in the background: it converges to
	// answering moved (tombstone) pointing at the new owner.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, qerr := owner.node.Query("olap", api.QueryRequest{Limit: 1})
		var qe *api.Error
		if errors.As(qerr, &qe) && qe.Code == api.CodeMoved && qe.Addr == promoted.ts.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ex-owner never tombstoned: %v", qerr)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Writes through the router land on the new owner.
	if _, err := rt.IngestLog("olap", []qlog.Entry{
		{SQL: "SELECT origin, count(*) FROM ontime GROUP BY origin"},
	}, true); err != nil {
		t.Fatal(err)
	}
}

// TestForcedFailoverLosesNoAcks: FailoverInterface promotes the
// follower of a live owner while two closed-loop writers append with
// flush=false. The ex-owner keeps serving until its next publish is
// fenced, so an ack it gave without publishing would die with it;
// every ack must instead be a row on the promoted owner.
func TestForcedFailoverLosesNoAcks(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2, Failover: true})
	owner := shards[0]
	waitSynced(t, owner, "olap", 1)
	rt.Refresh(context.Background()) // pick up the now-synced follower set
	startRows := tableRows(t, owner, "olap", "ontime")

	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(w*100000 + i)}}
				if _, err := rt.AppendRows("olap", req, false); err == nil {
					acked.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	newOwner, apiErr := rt.FailoverInterface("olap")
	time.Sleep(20 * time.Millisecond) // writes keep flowing onto the new owner
	close(stop)
	wg.Wait()
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if newOwner == owner.ts.URL {
		t.Fatalf("failover kept the owner %q", newOwner)
	}
	got := tableRows(t, shardByAddr(t, shards, newOwner), "olap", "ontime") - startRows
	if want := int(acked.Load()); want == 0 || got < want {
		t.Fatalf("acked-then-lost: the promoted owner gained %d rows, %d were acked", got, want)
	}
}

// TestReadFanoutRoundRobinAndFallback: fan-out alternates reads
// between the synced follower and the owner, and a follower failure
// falls back to the owner instead of surfacing an error.
func TestReadFanoutRoundRobinAndFallback(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 2, RouterOptions{Replicas: 2, ReadFanout: true})
	owner := shards[0]
	synced := waitSynced(t, owner, "olap", 1)
	fo := shardByAddr(t, shards, synced[0])
	rt.Refresh(context.Background()) // pick up the synced follower set

	// The rotation alternates follower / owner (owner turn = nil).
	first := rt.readTarget("olap")
	second := rt.readTarget("olap")
	if first == nil || first.addr != fo.ts.URL {
		t.Fatalf("first read target = %+v, want follower %s", first, fo.ts.URL)
	}
	if second != nil {
		t.Fatalf("second read target = %q, want the owner's turn (nil)", second.addr)
	}
	for i := 0; i < 4; i++ {
		if _, err := rt.Query("olap", api.QueryRequest{Limit: 2}); err != nil {
			t.Fatalf("fanned query %d: %v", i, err)
		}
	}

	// Kill the follower: reads keep succeeding (owner fallback), and
	// the dead follower drops out of the rotation.
	fo.ts.Close()
	for i := 0; i < 4; i++ {
		if _, err := rt.Query("olap", api.QueryRequest{Limit: 2}); err != nil {
			t.Fatalf("query %d after follower death: %v", i, err)
		}
	}
	if got := rt.readTarget("olap"); got != nil {
		t.Fatalf("dead follower still in rotation: %q", got.addr)
	}
}

// TestProbeBackoffSkipsDeadShard: after a failed probe the next
// refresh inside the backoff window skips the shard instead of eating
// another connect timeout, and does not inflate the failure count.
func TestProbeBackoffSkipsDeadShard(t *testing.T) {
	a, b, rt := startFleet(t)
	b.ts.Close()

	rt.Refresh(context.Background())
	rt.mu.RLock()
	conn := rt.shards[b.ts.URL]
	down, failures, next := conn.down, conn.failures, conn.nextProbe
	rt.mu.RUnlock()
	if !down || failures != 1 || !next.After(time.Now()) {
		t.Fatalf("after first failed probe: down=%v failures=%d nextProbe=%v", down, failures, next)
	}

	rows := rt.Refresh(context.Background())
	var skipped bool
	for _, row := range rows {
		if row.Addr == b.ts.URL {
			if row.Status != "unreachable" || !strings.Contains(row.Error, "next probe") {
				t.Fatalf("backed-off shard row = %+v", row)
			}
			skipped = true
		}
	}
	if !skipped {
		t.Fatal("no row for the dead shard")
	}
	rt.mu.RLock()
	failures2 := rt.shards[b.ts.URL].failures
	rt.mu.RUnlock()
	if failures2 != 1 {
		t.Fatalf("skipped probe bumped failures to %d", failures2)
	}
	// The live shard is unaffected.
	if _, err := rt.Query("olap", api.QueryRequest{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	_ = a
}

// TestTombstoneSurvivesRestart: a shard that handed an interface off
// must keep answering moved after a restart — the durable tombstone
// file closes the restart hole where a tombstone-less shard answered
// not_found and routers dropped the placement.
func TestTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	build := func() *testShard {
		reg := api.NewRegistry()
		ing := ingest.New(reg, ingest.Options{})
		svc := api.NewService(reg)
		svc.SetIngestor(ing)
		p := ingest.NewPersister(dir, ing, ingest.PersistOptions{})
		node, err := NewNode(svc, ing, NodeOptions{Addr: "127.0.0.1:8199", Persister: p, Token: testToken})
		if err != nil {
			t.Fatal(err)
		}
		return &testShard{node: node, ing: ing}
	}

	sh := build()
	olap, _ := fixtureLogs(t)
	if _, err := sh.ing.Host("olap", "olap", olap, engine.OnTimeDB(200), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	frame, _ := frameOf(t, sh, "olap")
	peer := startShard(t)
	if err := sh.node.Replication().SetTargets("olap", []string{peer.ts.URL}); err != nil {
		t.Fatal(err)
	}
	waitSynced(t, sh, "olap", 1)
	if _, err := sh.node.Replication().Handoff("olap", peer.ts.URL); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process over the same data dir remembers the
	// relocation.
	sh2 := build()
	_, qerr := sh2.node.Query("olap", api.QueryRequest{Limit: 1})
	var ae *api.Error
	if !errors.As(qerr, &ae) || ae.Code != api.CodeMoved {
		t.Fatalf("restarted shard answered %v, want moved", qerr)
	}
	if ae.Addr != peer.ts.URL {
		t.Fatalf("restored tombstone points at %q, want %q", ae.Addr, peer.ts.URL)
	}

	// Being seeded with the interface again clears the tombstone
	// durably too.
	if _, err := sh2.node.Replication().Follow(frame, 1, peer.ts.URL); err != nil {
		t.Fatal(err)
	}
	_, qerr = build().node.Query("olap", api.QueryRequest{Limit: 1})
	if errors.As(qerr, &ae) && ae.Code == api.CodeMoved {
		t.Fatalf("tombstone survived the seed: %v", qerr)
	}
}

// TestFailoverUnderLoadNoLostAcks is the race hammer: writers append
// rows and readers query through the router while the owning shard is
// killed mid-stream. Afterwards every ACKED write must be readable
// from the promoted follower (ack-coupled replication means an ack
// without the follower's copy cannot exist), no read may ever have
// failed, and the next refresh re-seeds a replacement follower on the
// remaining shard.
func TestFailoverUnderLoadNoLostAcks(t *testing.T) {
	shards, rt := startReplicatedFleet(t, 3, RouterOptions{
		Replicas: 2, ReadFanout: true, Failover: true,
	})
	owner := shards[0]
	waitSynced(t, owner, "olap", 1)
	rt.Refresh(context.Background()) // pick up the now-synced follower set

	before, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(0)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	startCount := before.RowCount

	const writers, perWriter = 4, 30
	var acked atomic.Int64
	var readErrs atomic.Int64
	var firstReadErr atomic.Value
	var wg, rwg sync.WaitGroup
	stopReads := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				row := ontimeRow(w*perWriter + i)
				// A failed write is retried until it lands or the
				// budget runs out; only acks count.
				for attempt := 0; attempt < 10; attempt++ {
					if _, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{row}}, true); err == nil {
						acked.Add(1)
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				// Pace the stream so the owner is killed mid-write,
				// not after the hammer already drained.
				time.Sleep(3 * time.Millisecond)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				if _, err := rt.Query("olap", api.QueryRequest{Limit: 1}); err != nil {
					readErrs.Add(1)
					firstReadErr.CompareAndSwap(nil, fmt.Sprintf("%v", err))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	// Kill the owner mid-stream — the in-process equivalent of SIGKILL:
	// open client connections die, new ones are refused.
	time.Sleep(50 * time.Millisecond)
	owner.ts.CloseClientConnections()
	owner.ts.Close()

	// Let the writers finish, then stop the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer did not finish")
	}
	close(stopReads)
	rwg.Wait()

	if got := rt.Placement()["olap"]; got == owner.ts.URL || got == "" {
		t.Fatalf("placement after owner death = %q", got)
	}
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d reads failed during failover (first: %v)", n, firstReadErr.Load())
	}

	// Every acked row is present on the promoted owner. A RowsAck
	// reports the table's total rows (a QueryResponse.RowCount is the
	// result-relation size, not the table's), so count with one more
	// flushed append.
	if _, err := rt.Query("olap", api.QueryRequest{Limit: 1}); err != nil {
		t.Fatalf("query against the promoted owner: %v", err)
	}
	finalAck, err := rt.AppendRows("olap", api.RowsRequest{Table: "ontime", Rows: [][]any{ontimeRow(9999)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	wantAtLeast := startCount + int(acked.Load()) + 1
	if finalAck.RowCount < wantAtLeast {
		t.Fatalf("acked-then-lost writes: %d rows visible, %d acked (want >= %d)",
			finalAck.RowCount, acked.Load(), wantAtLeast)
	}

	// The refresh loop heals the replica set: a replacement follower is
	// seeded on the surviving shard.
	newOwner := shardByAddr(t, shards, rt.Placement()["olap"])
	rt.Refresh(context.Background())
	synced := waitSynced(t, newOwner, "olap", 1)
	if synced[0] == owner.ts.URL || synced[0] == newOwner.ts.URL {
		t.Fatalf("replacement follower at %q", synced[0])
	}
}
