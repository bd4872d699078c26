package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/wal"
)

// durable journals the peer's publishes under a temp dir.
func durable(t *testing.T) func(*ingest.Ingester) *ingest.Persister {
	return func(ing *ingest.Ingester) *ingest.Persister {
		per := ingest.NewPersister(t.TempDir(), ing, ingest.PersistOptions{})
		t.Cleanup(func() { per.Close() })
		return per
	}
}

// writeN acks and publishes n distinct log entries, one publication each.
func (p *peer) writeN(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE x = %d", 100+p.seq()+uint64(i))
		if _, err := p.ing.Submit(iface, []qlog.Entry{{SQL: sql}}); err != nil {
			p.t.Fatal(err)
		}
	}
}

func (p *peer) seq() uint64 {
	p.t.Helper()
	seq, err := p.ing.Seq(iface)
	if err != nil {
		p.t.Fatal(err)
	}
	return seq
}

// TestSyncPicksLogOrBase: the one sync path ships the owner's logged
// records when they cover the follower's position and one base frame
// otherwise, and in every case the publishes that land mid-sync reach
// the follower exactly once.
func TestSyncPicksLogOrBase(t *testing.T) {
	cases := []struct {
		name string
		// prepare runs after the follower missed 3 publications (it is at
		// head-3, not stale, and the owner's table marks it stale).
		prepare  func(t *testing.T, p, q *peer)
		wantBase bool
	}{
		{name: "the owner's log covers the follower",
			prepare: func(t *testing.T, p, q *peer) {}},
		{name: "a checkpoint truncated past the follower", wantBase: true,
			prepare: func(t *testing.T, p, q *peer) {
				if _, err := p.mgr.cfg.Persister.SaveAll(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "a stale follower", wantBase: true,
			prepare: func(t *testing.T, p, q *peer) {
				if err := q.apply(0, p.url, q.seq()+2); codeOf(err) != api.CodeReplicaOutOfSync {
					t.Fatalf("gap apply = %v", err)
				}
			}},
		{name: "a follower ahead of the owner", wantBase: true,
			prepare: func(t *testing.T, p, q *peer) {
				// Two past the owner: still ahead after the probe's own bump.
				for seq := q.seq() + 1; seq <= p.seq()+2; seq++ {
					if err := q.apply(0, p.url, seq); err != nil {
						t.Fatal(err)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, q := startPeer(t, true, durable(t)), newPeer(t, false)
			p.follow(q)
			p.writeN(2)

			// q drops out of the stream: its apply endpoint fails while the
			// owner publishes three more times.
			var blocked atomic.Bool
			var follows, midSync atomic.Int32
			q.wrap(func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					switch {
					case blocked.Load() && strings.HasSuffix(r.URL.Path, "/apply"):
						http.Error(w, "down", http.StatusServiceUnavailable)
						return
					case strings.HasSuffix(r.URL.Path, "/follow"):
						follows.Add(1)
						fallthrough
					case strings.HasSuffix(r.URL.Path, "/replica"):
						// A write acked while the sync is in flight.
						if _, _, err := p.ing.PublishBump(iface); err != nil {
							t.Errorf("publish mid-sync: %v", err)
						}
						midSync.Add(1)
					}
					next.ServeHTTP(w, r)
				})
			})
			blocked.Store(true)
			p.writeN(3)
			blocked.Store(false)
			if fs := p.info().Followers; len(fs) != 1 || fs[0].Synced {
				t.Fatalf("follower still synced after a failed apply: %+v", fs)
			}
			tc.prepare(t, p, q)

			before := p.info()
			p.follow(q) // re-targets the stale follower: one sync
			after := p.info()

			wantFollows, wantSeeds, wantCatchUps := 0, before.Seeds, before.CatchUps+1
			if tc.wantBase {
				wantFollows, wantSeeds, wantCatchUps = 1, before.Seeds+1, before.CatchUps
			}
			if int(follows.Load()) != wantFollows || after.Seeds != wantSeeds || after.CatchUps != wantCatchUps {
				t.Fatalf("follow requests %d, seeds %d→%d, catchUps %d→%d; want %d follow(s), seeds %d, catchUps %d",
					follows.Load(), before.Seeds, after.Seeds, before.CatchUps, after.CatchUps,
					wantFollows, wantSeeds, wantCatchUps)
			}
			if midSync.Load() == 0 {
				t.Fatal("no publish landed mid-sync")
			}
			// One more write streams normally, then the copies match.
			p.writeN(1)
			if qs, ps := q.seq(), p.seq(); qs != ps {
				t.Fatalf("follower at seq %d, owner at %d", qs, ps)
			}
			// Equal base frames: equal log, dataset, epoch and seq.
			if !bytes.Equal(q.frame(), p.frame()) {
				t.Fatal("follower's encoded copy differs from the owner's")
			}
		})
	}
}

// TestReplicationBodiesValidated: follow and apply refuse a missing or
// malformed term, and apply refuses a body that is not exactly one
// valid record frame — each with bad_request, leaving the follower's
// term and seq where they were.
func TestReplicationBodiesValidated(t *testing.T) {
	frame, err := wal.EncodeRecord(ingest.Publication{Seq: 1, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[5] ^= 0xFF // inside the CRC
	trailing := append(append([]byte(nil), frame...), 0)
	term := func(v string) http.Header { return http.Header{termHeader: {v}, ownerHeader: {ownerA}} }
	cases := []struct {
		name string
		op   string
		hdr  http.Header
		body func(q *peer) []byte
	}{
		{"follow without a term", "follow", http.Header{ownerHeader: {ownerA}}, (*peer).frame},
		{"follow with a malformed term", "follow", term("three"), (*peer).frame},
		{"apply without a term", "apply", http.Header{ownerHeader: {ownerA}}, func(*peer) []byte { return frame }},
		{"apply with a malformed term", "apply", term("-1"), func(*peer) []byte { return frame }},
		{"apply with a flipped CRC byte", "apply", term("2"), func(*peer) []byte { return flipped }},
		{"apply with trailing bytes", "apply", term("2"), func(*peer) []byte { return trailing }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newPeer(t, true)
			q.become(api.RoleFollower, 2, ownerA, false)
			req, err := http.NewRequest(http.MethodPost, q.url+ifacePath(iface, tc.op), bytes.NewReader(tc.body(q)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header = tc.hdr
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e api.Error
			_ = json.NewDecoder(resp.Body).Decode(&e)
			if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
				t.Fatalf("status %d code %q (%s), want 400 %s", resp.StatusCode, e.Code, e.Message, api.CodeBadRequest)
			}
			if i := q.info(); i.Term != 2 || i.Seq != 0 || i.Owner != ownerA || i.Stale {
				t.Fatalf("a refused %s changed the follower: %+v", tc.op, i)
			}
		})
	}
}
