package replica

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/store"
)

const iface = "live"

// peer is one shard as far as replication is concerned: an ingester
// hosting "live", a manager over it, and the manager's wire routes on a
// real listener. No router, no shard.Node — the node's callbacks are
// the few lines below.
type peer struct {
	t   *testing.T
	url string
	ing *ingest.Ingester
	reg *api.Registry
	mgr *Manager

	mu      sync.Mutex
	demoted map[string]string // Config.Demote calls: interface -> new owner
	handler http.Handler
}

// wrap puts a middleware in front of the peer's routes (fault injection).
func (p *peer) wrap(mw func(next http.Handler) http.Handler) {
	p.mu.Lock()
	p.handler = mw(p.handler)
	p.mu.Unlock()
}

func newPeer(t *testing.T, hostIt bool) *peer { return startPeer(t, hostIt, nil) }

// startPeer is newPeer with an optional persister constructor: a
// durable peer journals its publishes, so it can catch followers up
// from its log.
func startPeer(t *testing.T, hostIt bool, persist func(*ingest.Ingester) *ingest.Persister) *peer {
	t.Helper()
	p := &peer{t: t, reg: api.NewRegistry(), demoted: map[string]string{}}
	p.ing = ingest.New(p.reg, ingest.Options{})
	var per *ingest.Persister
	if persist != nil {
		per = persist(p.ing)
	}
	mux := http.NewServeMux()
	p.handler = mux
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		h := p.handler
		p.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	p.url = ts.URL
	drop := func(id string) {
		p.ing.Detach(id)
		p.reg.Remove(id)
	}
	mgr, err := NewManager(Config{
		Self: p.url, Ing: p.ing, Reg: p.reg, Drop: drop, Persister: per,
		Demote: func(id, to string) {
			p.mu.Lock()
			p.demoted[id] = to
			p.mu.Unlock()
			drop(id)
			p.mgr.Forget(id)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.mgr = mgr
	p.ing.SetPublishHook(mgr.Hook())
	mgr.Register(mux, func(h http.HandlerFunc) http.HandlerFunc { return h })
	if hostIt {
		log := &qlog.Log{}
		for i := 1; i <= 4; i++ {
			log.Append(fmt.Sprintf("SELECT a FROM t WHERE x = %d", i), "")
		}
		tbl := engine.NewTable("t", "a", "x")
		for i := 1; i <= 20; i++ {
			tbl.MustAddRow(engine.Num(float64(i*10)), engine.Num(float64(i)))
		}
		db := engine.NewDB()
		db.AddTable(tbl)
		if _, err := p.ing.Host(iface, iface, log, db, core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// become puts the hosted copy into a replication state the way a
// restart does (RestoreState); a stale follower gets there the way
// production does, by being sent an event past a gap.
func (p *peer) become(role string, term uint64, owner string, stale bool) {
	p.t.Helper()
	p.mgr.RestoreState(iface, &store.ReplState{Role: role, Term: term, Owner: owner}, 0)
	if stale {
		if err := p.apply(term, owner, 7); codeOf(err) != api.CodeReplicaOutOfSync {
			p.t.Fatalf("gap event = %v, want %s", err, api.CodeReplicaOutOfSync)
		}
	}
}

// apply streams a bare epoch bump at seq from the given owner and term
// into the copy; seq 1 continues a fresh copy's stream (seq 0, epoch 1).
func (p *peer) apply(term uint64, owner string, seq uint64) error {
	return p.mgr.Apply(iface, term, owner, ingest.Publication{Seq: seq, Epoch: seq + 1})
}

func (p *peer) info() api.ReplicationInfo {
	p.t.Helper()
	info := p.mgr.Info(iface)
	if info == nil {
		p.t.Fatal("no replication state")
	}
	return *info
}

// write publishes and acks one log entry — the probe for "the feed
// still accepts writes".
func (p *peer) write() error {
	_, err := p.ing.Submit(iface, []qlog.Entry{{SQL: "SELECT a FROM t WHERE x = 9"}})
	return err
}

// follow makes q a synced follower of p and returns once p says so.
func (p *peer) follow(q *peer) {
	p.t.Helper()
	if err := p.mgr.SetTargets(iface, []string{q.url}); err != nil {
		p.t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fs := p.info().Followers; len(fs) == 1 && fs[0].Synced {
			return
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("follower never synced: %+v", p.info())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func codeOf(err error) string {
	var e *api.Error
	if errors.As(err, &e) {
		return e.Code
	}
	if err != nil {
		return "unstructured: " + err.Error()
	}
	return ""
}

const (
	ownerA = "http://owner-a"
	ownerB = "http://owner-b"
)

// TestStateMachine pins the structured outcome of every control and
// data operation against every state a copy can be in: (role, term,
// stale) on the receiving side, and for Handoff the mode of the target
// in the owner's follower table.
func TestStateMachine(t *testing.T) {
	cases := []struct {
		name  string
		role  string
		term  uint64
		stale bool
		op    func(p *peer) error
		want  string // error code; "" = success
		after func(t *testing.T, p *peer)
	}{
		// --- Apply (follower side of the stream).
		{name: "apply/in order", role: api.RoleFollower, term: 2,
			op: func(p *peer) error { return p.apply(2, ownerA, 1) },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Seq != 1 || i.Stale {
					t.Fatalf("after apply: %+v", i)
				}
			}},
		{name: "apply/older term is fenced toward the known owner", role: api.RoleFollower, term: 2,
			op:   func(p *peer) error { return p.apply(1, ownerB, 1) },
			want: api.CodeNotOwner,
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Seq != 0 || i.Term != 2 || i.Owner != ownerA {
					t.Fatalf("a fenced event changed the follower: %+v", i)
				}
			}},
		{name: "apply/newer term is adopted with its owner", role: api.RoleFollower, term: 2,
			op: func(p *peer) error { return p.apply(3, ownerB, 1) },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Term != 3 || i.Owner != ownerB || i.Seq != 1 {
					t.Fatalf("after a newer-term event: %+v", i)
				}
			}},
		{name: "apply/same term from a different owner is split brain", role: api.RoleFollower, term: 2,
			op:   func(p *peer) error { return p.apply(2, ownerB, 1) },
			want: api.CodeNotOwner},
		{name: "apply/seq gap marks the follower stale", role: api.RoleFollower, term: 2,
			op:   func(p *peer) error { return p.apply(2, ownerA, 2) },
			want: api.CodeReplicaOutOfSync,
			after: func(t *testing.T, p *peer) {
				if i := p.info(); !i.Stale || i.Seq != 0 {
					t.Fatalf("after a gap: %+v", i)
				}
			}},
		{name: "apply/stale follower refuses even the right event", role: api.RoleFollower, term: 2, stale: true,
			op:   func(p *peer) error { return p.apply(2, ownerA, 1) },
			want: api.CodeReplicaOutOfSync},
		{name: "apply/owner refuses a stream", role: api.RoleOwner, term: 2,
			op:   func(p *peer) error { return p.apply(3, ownerB, 1) },
			want: api.CodeNotOwner},

		// --- Promote.
		{name: "promote/follower at a newer term wins and bumps the epoch", role: api.RoleFollower, term: 2,
			op: func(p *peer) error { _, err := p.mgr.Promote(iface, 3, nil); return err },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Role != api.RoleOwner || i.Term != 3 || i.Seq != 1 {
					t.Fatalf("after promote: %+v", i)
				}
			}},
		{name: "promote/follower at its own term", role: api.RoleFollower, term: 2,
			op:   func(p *peer) error { _, err := p.mgr.Promote(iface, 2, nil); return err },
			want: api.CodeTermMismatch},
		{name: "promote/stale follower cannot be promoted", role: api.RoleFollower, term: 2, stale: true,
			op:   func(p *peer) error { _, err := p.mgr.Promote(iface, 3, nil); return err },
			want: api.CodeReplicaLagging,
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Role != api.RoleFollower || i.Term != 2 {
					t.Fatalf("a refused promote changed the follower: %+v", i)
				}
			}},
		{name: "promote/owner re-promoted at its term is idempotent", role: api.RoleOwner, term: 2,
			op: func(p *peer) error { _, err := p.mgr.Promote(iface, 2, nil); return err },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Term != 2 || i.Seq != 0 {
					t.Fatalf("a replayed promote published again: %+v", i)
				}
			}},
		{name: "promote/owner at an older term", role: api.RoleOwner, term: 2,
			op:   func(p *peer) error { _, err := p.mgr.Promote(iface, 1, nil); return err },
			want: api.CodeTermMismatch},

		// --- Demote.
		{name: "demote/owner of an older term is fenced", role: api.RoleOwner, term: 2,
			op: func(p *peer) error { return p.mgr.Demote(iface, DemoteRequest{To: ownerB, Term: 3}) },
			after: func(t *testing.T, p *peer) {
				if to := p.awaitDemoted(); to != ownerB {
					t.Fatalf("Config.Demote ran toward %q, want %q", to, ownerB)
				}
			}},
		{name: "demote/owner at the same term keeps its claim", role: api.RoleOwner, term: 2,
			op:   func(p *peer) error { return p.mgr.Demote(iface, DemoteRequest{To: ownerB, Term: 2}) },
			want: api.CodeTermMismatch},
		{name: "demote/follower has nothing to give up", role: api.RoleFollower, term: 2,
			op: func(p *peer) error { return p.mgr.Demote(iface, DemoteRequest{To: ownerB, Term: 3}) },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Role != api.RoleFollower || i.Term != 2 || i.Owner != ownerA {
					t.Fatalf("demote changed a follower: %+v", i)
				}
			}},

		// --- Follow (seed intake), with a frame of the copy itself.
		{name: "follow/owner refuses a seed at its own term", role: api.RoleOwner, term: 2,
			op:   func(p *peer) error { _, err := p.mgr.Follow(p.frame(), 2, ownerB); return err },
			want: api.CodeTermMismatch},
		{name: "follow/owner is superseded by a newer-term seed", role: api.RoleOwner, term: 2,
			op: func(p *peer) error { _, err := p.mgr.Follow(p.frame(), 3, ownerB); return err },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Role != api.RoleFollower || i.Term != 3 || i.Owner != ownerB {
					t.Fatalf("after a superseding seed: %+v", i)
				}
			}},
		{name: "follow/stale follower is healed by a seed", role: api.RoleFollower, term: 2, stale: true,
			op: func(p *peer) error { _, err := p.mgr.Follow(p.frame(), 2, ownerA); return err },
			after: func(t *testing.T, p *peer) {
				if i := p.info(); i.Stale {
					t.Fatalf("still stale after a seed: %+v", i)
				}
			}},
		{name: "follow/corrupt frame", role: api.RoleFollower, term: 2,
			op:   func(p *peer) error { _, err := p.mgr.Follow([]byte("junk"), 3, ownerB); return err },
			want: api.CodeBadRequest},

		// --- Unfollow.
		{name: "unfollow/follower drops its copy", role: api.RoleFollower, term: 2,
			op: func(p *peer) error { return p.mgr.Unfollow(iface) },
			after: func(t *testing.T, p *peer) {
				if _, hosted := p.reg.Get(iface); hosted || p.mgr.Info(iface) != nil {
					t.Fatal("copy or state survived unfollow")
				}
			}},
		{name: "unfollow/owner keeps its copy", role: api.RoleOwner, term: 2,
			op:   func(p *peer) error { return p.mgr.Unfollow(iface) },
			want: api.CodeNotOwner},

		// --- Handoff, by the target's mode in the owner's follower table.
		{name: "handoff/to itself", role: api.RoleOwner, term: 2,
			op:   func(p *peer) error { _, err := p.mgr.Handoff(iface, p.url); return err },
			want: api.CodeBadRequest},
		{name: "handoff/follower cannot hand off", role: api.RoleFollower, term: 2,
			op:   func(p *peer) error { _, err := p.mgr.Handoff(iface, ownerB); return err },
			want: api.CodeNotOwner},
		{name: "handoff/unknown target", role: api.RoleOwner, term: 2,
			op:    func(p *peer) error { _, err := p.mgr.Handoff(iface, ownerB); return err },
			want:  api.CodeReplicaLagging,
			after: stillOwner},
		{name: "handoff/stale target", role: api.RoleOwner, term: 2,
			op: func(p *peer) error {
				// What a restart leaves: a follower of record awaiting re-sync.
				p.mgr.RestoreState(iface, &store.ReplState{Role: api.RoleOwner, Term: 2,
					Followers: map[string]uint64{ownerB: 0}}, 0)
				_, err := p.mgr.Handoff(iface, ownerB)
				return err
			},
			want:  api.CodeReplicaLagging,
			after: stillOwner},
		{name: "handoff/target still seeding", role: api.RoleOwner, term: 2,
			op: func(p *peer) error {
				seeding, release := make(chan struct{}), make(chan struct{})
				slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					close(seeding)
					<-release
				}))
				defer slow.Close()
				defer close(release)
				if err := p.mgr.SetTargets(iface, []string{slow.URL}); err != nil {
					return err
				}
				<-seeding
				_, err := p.mgr.Handoff(iface, slow.URL)
				return err
			},
			want:  api.CodeReplicaLagging,
			after: stillOwner},
		{name: "handoff/synced target is promoted at term+1 and the feed sealed", role: api.RoleOwner, term: 2,
			op: func(p *peer) error {
				q := newPeer(p.t, false)
				p.follow(q)
				// An ack given just before the handoff is in the new owner's copy.
				if _, err := p.ing.Submit(iface, []qlog.Entry{{SQL: "SELECT a FROM t WHERE x = 9"}}); err != nil {
					return err
				}
				st, err := p.mgr.Handoff(iface, q.url)
				if err != nil {
					return err
				}
				if qi := q.info(); st.Info.Role != api.RoleOwner || st.Info.Term != 3 ||
					qi.Role != api.RoleOwner || qi.Term != 3 || qi.Seq != 2 {
					p.t.Fatalf("new owner = %+v (handoff reported %+v), want owner at term 3, seq 2 (the acked write + fence bump)", qi, st.Info)
				}
				snap, err := q.ing.Capture(iface)
				if err != nil {
					return err
				}
				if n := len(snap.Log); n != 5 {
					p.t.Fatalf("new owner mined %d entries, want 5 (the acked entry included)", n)
				}
				if to := p.awaitDemoted(); to != q.url {
					p.t.Fatalf("Config.Demote ran toward %q, want %q", to, q.url)
				}
				return nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPeer(t, true)
			p.become(tc.role, tc.term, ownerA, tc.stale)
			if got := codeOf(tc.op(p)); got != tc.want {
				t.Fatalf("outcome %q, want %q", got, tc.want)
			}
			if tc.after != nil {
				tc.after(t, p)
			}
		})
	}
}

// stillOwner: a refused handoff changed nothing — same role and term,
// and the feed still takes (and publishes) writes.
func stillOwner(t *testing.T, p *peer) {
	t.Helper()
	if i := p.info(); i.Role != api.RoleOwner || i.Term != 2 {
		t.Fatalf("a refused handoff changed the owner: %+v", i)
	}
	if err := p.write(); err != nil {
		t.Fatalf("write after a refused handoff: %v", err)
	}
}

// frame captures the peer's own copy as a seed frame.
func (p *peer) frame() []byte {
	p.t.Helper()
	snap, err := p.ing.Capture(iface)
	if err != nil {
		p.t.Fatal(err)
	}
	frame, err := store.Encode(snap)
	if err != nil {
		p.t.Fatal(err)
	}
	return frame
}

// TestLostPromoteResponseFencesUnsealedOwner: the handoff's promote is
// applied but its answer never arrives. The owner must stay unsealed
// (it cannot know), and its very next publish must be refused by the
// winner, fail its ack and fence the loser — that is the whole settle.
func TestLostPromoteResponseFencesUnsealedOwner(t *testing.T) {
	p, q := newPeer(t, true), newPeer(t, false)
	p.follow(q)
	q.wrap(func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/promote") {
				next.ServeHTTP(httptest.NewRecorder(), r)
				panic(http.ErrAbortHandler)
			}
			next.ServeHTTP(w, r)
		})
	})

	if _, err := p.mgr.Handoff(iface, q.url); codeOf(err) != api.CodeShardUnavailable {
		t.Fatalf("handoff with a lost promote response = %v, want %s", err, api.CodeShardUnavailable)
	}
	if qi := q.info(); qi.Role != api.RoleOwner || qi.Term != 1 {
		t.Fatalf("q = %+v, want owner at term 1 (the promote was applied)", qi)
	}
	if pi := p.info(); pi.Role != api.RoleOwner || pi.Term != 0 {
		t.Fatalf("p = %+v, want still an (unsealed) owner at term 0", pi)
	}

	err := p.write()
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeNotOwner || ae.Addr != q.url {
		t.Fatalf("ex-owner's next publish = %v, want not_owner -> %s", err, q.url)
	}
	if to := p.awaitDemoted(); to != q.url {
		t.Fatalf("the refused publish fenced the ex-owner toward %q, want %q", to, q.url)
	}
}

// awaitDemoted waits for the manager's (asynchronous) Config.Demote
// call and returns where it pointed.
func (p *peer) awaitDemoted() string {
	p.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		to, ok := p.demoted[iface]
		p.mu.Unlock()
		if ok {
			return to
		}
		if time.Now().After(deadline) {
			p.t.Fatal("Config.Demote never ran")
		}
		time.Sleep(time.Millisecond)
	}
}
