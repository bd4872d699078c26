package shard

import (
	"context"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/replica"
)

// This file is the router half of the replication layer: placement
// from owner claims with term-based conflict resolution, the per-
// refresh reconciliation that drives every owner toward its desired
// follower set, read fan-out across in-sync followers, failover
// (promote the most-caught-up follower when the owner dies) and the
// probe backoff that keeps dead shards from being hammered.

// ownerClaim is one live shard's claim to own an interface, as seen in
// its health listing. info is nil for unreplicated owners.
type ownerClaim struct {
	addr string
	info *api.ReplicationInfo
}

func (c ownerClaim) term() uint64 {
	if c.info == nil {
		return 0
	}
	return c.info.Term
}

// demotion fences a shard that lost an ownership term race.
type demotion struct {
	id    string
	loser string // shard to demote
	to    string // winning owner it should point its tombstone at
	term  uint64 // winning term (the fence)
}

// resolveOwners picks between two conflicting ownership claims. A
// strictly higher replication term wins outright — a promotion
// happened while the loser was partitioned, so the loser is provably
// stale and must be fenced (demoted). At equal terms neither claim is
// provably stale (a crashed migration, or two unreplicated copies), so
// the currently placed — then lexicographically first — shard wins
// deterministically and nobody is demoted; the operator resolves it.
func resolveOwners(id string, a, b ownerClaim, cur string) (win, lose ownerClaim, fence bool) {
	_ = id
	switch {
	case a.term() > b.term():
		return a, b, true
	case b.term() > a.term():
		return b, a, true
	}
	if b.addr == cur && a.addr != cur {
		return b, a, false
	}
	if a.addr == cur {
		return a, b, false
	}
	if a.addr < b.addr {
		return a, b, false
	}
	return b, a, false
}

// demoteStale tells a lost-term ex-owner to fence itself (tombstone
// pointing at the winner, then drop the copy). Best-effort: a miss is
// retried by the next refresh observing the same conflict.
func (rt *Router) demoteStale(d demotion) {
	rt.mu.RLock()
	conn := rt.shards[d.loser]
	rt.mu.RUnlock()
	if conn == nil {
		return
	}
	ctx, cancel := rt.callCtx(nil)
	defer cancel()
	_ = conn.rep.Demote(ctx, d.id, d.to, d.term)
}

// --- replica-set tracking (the owner's view, cached per refresh).

// repFollower is the router's cached view of one follower.
type repFollower struct {
	synced bool
	seq    uint64
}

// replicaSet caches an interface's replication state between
// refreshes: the owner's term, its followers, and the round-robin
// cursor read fan-out walks with.
type replicaSet struct {
	term      uint64
	followers map[string]repFollower
	rr        uint64
}

// newReplicaSet builds the cached view from an owner's health row,
// carrying the round-robin cursor over so fan-out does not reset to
// the same follower after every refresh.
func newReplicaSet(info *api.ReplicationInfo, old *replicaSet) *replicaSet {
	rs := &replicaSet{followers: map[string]repFollower{}}
	if old != nil {
		rs.rr = old.rr
	}
	if info == nil {
		return rs
	}
	rs.term = info.Term
	for _, f := range info.Followers {
		rs.followers[f.Addr] = repFollower{synced: f.Synced, seq: f.Seq}
	}
	return rs
}

// --- reconciliation: drive owners toward their desired follower sets.

// desiredFollowers ranks the live shards after owner by rendezvous
// score and takes Replicas-1 of them — the same stable hashing as
// Want, so follower placement survives membership churn the way
// ownership does.
func (rt *Router) desiredFollowers(id, owner string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	type scored struct {
		addr  string
		score uint64
	}
	cands := make([]scored, 0, len(rt.order))
	for _, addr := range rt.order {
		if addr == owner {
			continue
		}
		if conn := rt.shards[addr]; conn == nil || conn.down {
			continue
		}
		cands = append(cands, scored{addr, rendezvousScore(addr, id)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	n := rt.opts.Replicas - 1
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]string, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.addr)
	}
	return out
}

// sameFollowers reports whether the owner's follower list already
// matches the desired addresses, all in sync — the no-op case a
// refresh should not bother re-posting.
func sameFollowers(have []api.ReplicaFollower, want []string) bool {
	if len(have) != len(want) {
		return false
	}
	byAddr := make(map[string]api.ReplicaFollower, len(have))
	for _, f := range have {
		byAddr[f.Addr] = f
	}
	for _, addr := range want {
		f, ok := byAddr[addr]
		if !ok || !f.Synced {
			return false
		}
	}
	return true
}

// ensureReplication posts each owned interface's desired follower set
// to its owner. SetTargets on the shard re-seeds only new or stale
// followers, so re-posting after a failed seed is the retry mechanism:
// the refresh loop is the replication reconciler, no separate daemon.
func (rt *Router) ensureReplication(ctx context.Context, claims map[string]ownerClaim) {
	if rt.opts.Replicas <= 1 {
		return
	}
	var wg sync.WaitGroup
	for id, c := range claims {
		rt.foMu.Lock()
		_, changing := rt.foInflight[id]
		rt.foMu.Unlock()
		if changing {
			// A migration's target is a follower beyond the desired set
			// until it is promoted; trimming it here would drop its copy.
			continue
		}
		want := rt.desiredFollowers(id, c.addr)
		if len(want) == 0 && (c.info == nil || len(c.info.Followers) == 0) {
			continue
		}
		if c.info != nil && sameFollowers(c.info.Followers, want) {
			continue
		}
		wg.Add(1)
		go func(id, owner string, want []string) {
			defer wg.Done()
			rt.mu.RLock()
			conn := rt.shards[owner]
			rt.mu.RUnlock()
			if conn == nil {
				return
			}
			cctx, cancel := context.WithTimeout(ctx, rt.opts.Timeout)
			defer cancel()
			_, _ = conn.rep.Targets(cctx, id, want)
		}(id, c.addr, want)
	}
	wg.Wait()
}

// --- read fan-out.

// readTarget picks the next read target for the interface, or nil when
// the read should go to the owner (fan-out off, no usable followers,
// or the owner's turn in the rotation — the owner serves reads too, it
// is a replica like any other).
func (rt *Router) readTarget(id string) *shardConn {
	if !rt.opts.ReadFanout {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rs := rt.reps[id]
	if rs == nil || len(rs.followers) == 0 {
		return nil
	}
	owner := rt.place[id]
	cands := make([]string, 0, len(rs.followers)+1)
	for addr, f := range rs.followers {
		if conn := rt.shards[addr]; f.synced && conn != nil && !conn.down {
			cands = append(cands, addr)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Strings(cands)
	all := append(cands, owner)
	pick := all[rs.rr%uint64(len(all))]
	rs.rr++
	if pick == owner {
		return nil
	}
	return rt.shards[pick]
}

// markFollowerFailed drops a follower out of the read rotation until
// the next refresh re-reports it in sync.
func (rt *Router) markFollowerFailed(id, addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rs := rt.reps[id]; rs != nil {
		if f, ok := rs.followers[addr]; ok {
			f.synced = false
			rs.followers[addr] = f
		}
	}
}

// --- failover.

// failover promotes the best surviving replica of id after its owner
// at deadAddr stopped answering. Returns the new owner's address. Per
// interface singleflight: the first caller runs the election, everyone
// else waits for its outcome. The election:
//
//  1. ask every other shard where its copy stands — (term, seq, epoch);
//  2. keep candidates that are not stale by their own account AND were
//     in sync by the dead owner's last reported view (a follower that
//     missed an acked write does not always know it — the owner's view
//     is the authority on who has everything that was acked);
//  3. promote the best candidate at term max(observed)+1 — the CAS
//     that fences the ex-owner: its late writes die with term_mismatch
//     (or fence it outright) when they reach any survivor;
//  4. flip the placement; the next refresh re-seeds a replacement
//     follower via ensureReplication.
func (rt *Router) failover(id, deadAddr string) (string, bool) {
	release, busy := rt.claimOwnerChange(id)
	if release == nil {
		<-busy
		rt.mu.RLock()
		cur := rt.place[id]
		rt.mu.RUnlock()
		return cur, cur != "" && cur != deadAddr
	}
	defer release()

	rt.mu.RLock()
	cur := rt.place[id]
	ownerView := rt.reps[id]
	conns := make([]*shardConn, 0, len(rt.order))
	for _, addr := range rt.order {
		if addr != deadAddr {
			conns = append(conns, rt.shards[addr])
		}
	}
	rt.mu.RUnlock()
	if cur != "" && cur != deadAddr {
		return cur, true // a concurrent failover (or refresh) already flipped it
	}
	if len(conns) == 0 {
		return "", false
	}

	stats := make([]*replica.StatusResponse, len(conns))
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn *shardConn) {
			defer wg.Done()
			ctx, cancel := rt.callCtx(nil)
			defer cancel()
			if st, err := conn.rep.Status(ctx, id); err == nil {
				stats[i] = st
			}
		}(i, conn)
	}
	wg.Wait()

	type cand struct {
		conn *shardConn
		st   *replica.StatusResponse
	}
	var maxTerm uint64
	var cands []cand
	for i, st := range stats {
		if st == nil {
			continue
		}
		if st.Info.Term > maxTerm {
			maxTerm = st.Info.Term
		}
		if st.Info.Stale {
			continue
		}
		if ownerView != nil {
			if f, tracked := ownerView.followers[conns[i].addr]; tracked && !f.synced {
				continue // the dead owner had already written this one off
			}
		}
		cands = append(cands, cand{conn: conns[i], st: st})
	}
	if len(cands) == 0 {
		return "", false
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i].st, cands[j].st
		if a.Info.Term != b.Info.Term {
			return a.Info.Term > b.Info.Term
		}
		if a.Info.Seq != b.Info.Seq {
			return a.Info.Seq > b.Info.Seq
		}
		if a.Epoch != b.Epoch {
			return a.Epoch > b.Epoch
		}
		return cands[i].conn.addr < cands[j].conn.addr
	})

	newTerm := maxTerm + 1
	for _, c := range cands {
		targets := make([]replica.PromoteTarget, 0, len(cands)-1)
		for _, o := range cands {
			if o.conn.addr != c.conn.addr {
				targets = append(targets, replica.PromoteTarget{Addr: o.conn.addr, Seq: o.st.Info.Seq})
			}
		}
		ctx, cancel := rt.callCtx(nil)
		st, err := c.conn.rep.Promote(ctx, id, newTerm, targets)
		cancel()
		if err != nil {
			continue // next-best survivor gets its chance
		}
		rt.ownerChanged(id, c.conn.addr, st)
		mxFailovers.Inc()
		return c.conn.addr, true
	}
	return "", false
}

// ownerChanged flips the placement to the shard this router just got
// promoted (failover or migration) and adopts its view of the replica
// set.
func (rt *Router) ownerChanged(id, addr string, st *replica.StatusResponse) {
	rt.mu.Lock()
	rt.place[id] = addr
	rt.reps[id] = newReplicaSet(&st.Info, rt.reps[id])
	rt.mu.Unlock()
}

// claimOwnerChange takes the interface's owner-change slot. It returns
// the release func, or — when a failover or migration already holds
// the slot — nil and the channel that closes when that one finishes.
func (rt *Router) claimOwnerChange(id string) (release func(), busy <-chan struct{}) {
	rt.foMu.Lock()
	defer rt.foMu.Unlock()
	if ch, inflight := rt.foInflight[id]; inflight {
		return nil, ch
	}
	ch := make(chan struct{})
	rt.foInflight[id] = ch
	return func() {
		rt.foMu.Lock()
		delete(rt.foInflight, id)
		rt.foMu.Unlock()
		close(ch)
	}, nil
}

// FailoverInterface forces a failover election for one interface, as
// if its current owner were dead — the manual big red button for an
// owner that is misbehaving rather than gone. The ex-owner, if it is
// actually alive, is fenced by its next publish or by the next refresh
// observing the new term. Every ack it gave followed a publish the
// promoted follower applied, so no acked write is lost, but writes
// that reach it before it is fenced fail; moving a healthy owner
// without failing a write is Migrate's job.
func (rt *Router) FailoverInterface(id string) (string, *api.Error) {
	rt.mu.RLock()
	cur := rt.place[id]
	rt.mu.RUnlock()
	if cur == "" {
		return "", api.Errf(api.CodeNotFound, http.StatusNotFound,
			"no shard hosts interface %q", id)
	}
	addr, ok := rt.failover(id, cur)
	if !ok {
		return "", api.Errf(api.CodeReplicaOutOfSync, http.StatusConflict,
			"failover %q: no in-sync replica to promote", id)
	}
	return addr, nil
}

// --- probe backoff.

const (
	// probeBackoffBase is the wait after a shard's first failure.
	probeBackoffBase = time.Second
	// probeBackoffCap bounds the exponential growth.
	probeBackoffCap = time.Minute
)

// bumpBackoffLocked records one more failed contact and schedules the
// next probe with jittered exponential backoff. Caller holds rt.mu.
func (rt *Router) bumpBackoffLocked(conn *shardConn) {
	conn.down = true
	conn.mx.probeFail.Inc()
	conn.mx.down.Set(1)
	if conn.failures < 30 {
		conn.failures++
	}
	d := probeBackoffBase << (conn.failures - 1)
	if d <= 0 || d > probeBackoffCap {
		d = probeBackoffCap
	}
	// Jitter over [d/2, d]: routers that observed the same death (or one
	// router's refresh and proxy paths) spread their re-probes instead
	// of stampeding the recovering shard.
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	conn.nextProbe = time.Now().Add(d)
}

// ForceRefresh clears every shard's probe backoff and refreshes: the
// operator's explicit POST /v1/router/refresh always probes the whole
// fleet, including shards a backoff window would skip. It is the
// escape hatch after restarting a dead shard — without it the router
// would not notice the revival until the (up to one minute) backoff
// expired.
func (rt *Router) ForceRefresh(ctx context.Context) []api.ShardHealth {
	rt.mu.Lock()
	for _, conn := range rt.shards {
		conn.nextProbe = time.Time{}
	}
	rt.mu.Unlock()
	return rt.Refresh(ctx)
}

// noteShardDown is the proxy path's report of a transport failure, so
// refresh backoff and target selection see deaths between refreshes.
func (rt *Router) noteShardDown(addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if conn, ok := rt.shards[addr]; ok {
		rt.bumpBackoffLocked(conn)
	}
}
