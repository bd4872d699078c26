// Package replica keeps N warm followers per hosted interface and
// promotes one when the owner dies.
//
// The data plane rides the ingestion layer's publish hook: every
// epoch-bumping publish on an owner (log re-mine, row append, mutation
// or bare epoch bump) is streamed synchronously to each in-sync
// follower as one WAL record frame, term and owner in headers —
// replicate-before-ack, so a write is only acknowledged after the
// followers that define "in sync" have applied it. A follower enters
// the stream one way (sync): the owner's logged records past its
// position when the log covers them, else one base frame (store.Encode,
// the format .snap files use), then what published meanwhile. So it is
// always an epoch-consistent copy at the owner's sequence (the miner is
// deterministic: re-applying the owner's publications reproduces its
// interface bit for bit).
//
// The control plane is term-fenced: every promotion increments a
// per-interface term, a follower rejects replication traffic from an
// owner with an older term (not_owner, carrying the new owner's
// address), and an ex-owner that sees that rejection demotes itself —
// its un-replicated tail is discarded and its clients are redirected
// with a structured moved/not_owner error. A follower that detects a
// gap in its stream marks itself stale (reads answer replica_lagging)
// until the owner re-syncs it. There is one owner-change protocol:
// a failover promotes a follower because the owner died, a migration
// (Handoff) promotes one on purpose. Either way no ack is lost: an
// owner acks a write only after publishing it into the stream.
//
// Availability over strict durability: a follower that cannot be
// reached is marked out-of-sync and the ack proceeds on the owner —
// the owner never blocks writes on a dead follower. The window where
// an acked write exists only on the owner is bounded by the router's
// refresh cadence (which re-targets and re-syncs the follower).
package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/store"
)

// Config wires a Manager to its node.
type Config struct {
	// Self is this shard's advertised base URL (normalized).
	Self string
	// Token authenticates outbound replication calls to peer shards.
	Token string
	// Ing is the node's ingester: seeds capture from it, applies land
	// in it.
	Ing *ingest.Ingester
	// Reg is the node's registry, for epoch reads and copy teardown.
	Reg *api.Registry
	// Funcs re-attaches table-valued functions — code a frame cannot
	// carry — to a seeded snapshot's store.
	Funcs func(id string, st *store.Store)
	// Demote is called (no locks held) when this shard no longer owns
	// id: tombstone to newOwner, then drop the local copy. A fence calls
	// it on its own goroutine, having already flipped the interface to a
	// stale follower, so the window before Demote completes answers
	// not_owner/replica_lagging, never a silent ack; a handoff calls it
	// inline, the feed already sealed against writes.
	Demote func(id, newOwner string)
	// Drop removes a local copy (and any durable snapshot) without a
	// tombstone — the unfollow/reseed teardown. Missing copies are not
	// an error.
	Drop func(id string)
	// ClearTombstone is called after a seed hosts a copy here: an old
	// moved tombstone no longer applies.
	ClearTombstone func(id string)
	// Persister, when set, makes replication durable: an accepted base
	// is installed (snapshot + manifest, log reset) before Follow
	// acknowledges it, control-plane changes rewrite the manifest, and a
	// trailing follower re-syncs from this owner's log instead of taking
	// a base. nil is an in-memory shard.
	Persister *ingest.Persister
}

const (
	// transferTimeout bounds one base transfer (a whole interface).
	transferTimeout = 2 * time.Minute
	// applyTimeout bounds one streamed frame and every other peer call.
	applyTimeout = 10 * time.Second
	// maxPending bounds the publications buffered for a follower mid-sync;
	// overflow marks it stale for a fresh sync instead of growing.
	maxPending = 4096
)

// peerHTTP carries every replication call, bounded by the longest one.
var peerHTTP = &http.Client{Timeout: transferTimeout}

// follower modes, owner side.
const (
	fSeeding = iota // a sync is in flight; live publications buffer in pending
	fSynced         // streaming: has every acked publish up to seq
	fStale          // fell out of the stream; needs a fresh sync
)

type follower struct {
	addr    string
	mode    int
	seq     uint64
	pending []ingest.Publication // published while the sync was in flight
	lastErr string
}

// fall drops the follower out of the stream; the next refresh re-syncs it.
func (fo *follower) fall(why string) { fo.mode, fo.pending, fo.lastErr = fStale, nil, why }

// ifaceState is one interface's replication state on this shard.
// state.mu serializes the interface's control operations and its
// outbound stream; the ingestion feed lock is never taken while
// holding it (the publish hook holds the feed lock and then takes
// state.mu, so the reverse order would deadlock).
type ifaceState struct {
	mu        sync.Mutex
	role      string // api.RoleOwner | api.RoleFollower
	term      uint64
	owner     string // follower: the owner's base URL
	stale     bool   // follower: gap detected, awaiting re-seed
	seq       uint64 // follower: last applied sequence number
	pubSeq    uint64 // owner: last sequence number published to followers
	followers map[string]*follower

	// fullSeeds counts syncs that shipped a base, catchUps those served
	// from the WAL alone; the replica smoke test pins "a bounced follower
	// takes no base" on them.
	fullSeeds uint64
	catchUps  uint64
}

// Manager is a shard's replication state machine: owner-side fan-out
// and seeding for interfaces it owns, follower-side apply and fencing
// for interfaces it warms. Interfaces with no explicit state are
// implicitly unreplicated owners — a fleet without -replicas behaves
// exactly as before this package existed.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	states map[string]*ifaceState
}

// NewManager validates the config and returns a manager. A persister's
// manifests then carry the live replication state, and what they
// remembered is re-adopted: a restarted ex-owner answers from the term
// it held, a restarted follower resumes at the seq its restore reached.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Ing == nil || cfg.Reg == nil {
		return nil, fmt.Errorf("replica: manager needs an ingester and a registry")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("replica: manager needs the shard's advertised address")
	}
	m := &Manager{cfg: cfg, states: map[string]*ifaceState{}}
	if p := cfg.Persister; p != nil {
		p.SetReplStateSource(m.replState)
		for id, rs := range p.ReplStates() {
			seq, _ := cfg.Ing.Seq(id)
			m.RestoreState(id, rs, seq)
		}
	}
	return m, nil
}

// replState reports an interface's control state for its manifest, nil
// when untracked.
func (m *Manager) replState(id string) *store.ReplState {
	info := m.Info(id)
	if info == nil {
		return nil
	}
	rs := &store.ReplState{Role: info.Role, Term: info.Term, Owner: info.Owner, Followers: map[string]uint64{}}
	for _, fo := range info.Followers {
		rs.Followers[fo.Addr] = fo.Seq
	}
	return rs
}

// Hook returns the ingest.PublishHook to install on the node's
// ingester: the owner half of the data plane.
func (m *Manager) Hook() ingest.PublishHook {
	return func(id string, p ingest.Publication) error { return m.publish(id, p) }
}

func (m *Manager) lookup(id string) *ifaceState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[id]
}

// ensure returns the interface's state, creating the implicit
// unreplicated-owner state if none exists.
func (m *Manager) ensure(id string) *ifaceState {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.states[id]
	if !ok {
		s = &ifaceState{role: api.RoleOwner, followers: map[string]*follower{}}
		m.states[id] = s
		registerMetrics(id, s)
	}
	return s
}

// Forget drops the interface's replication state (demote/delete
// teardown). The copy itself is the caller's business.
func (m *Manager) Forget(id string) {
	m.mu.Lock()
	delete(m.states, id)
	m.mu.Unlock()
}

// persist flushes the interface's control state durably (nil-safe).
// Never call it holding s.mu or a feed lock: the callback reads the
// live state back through Info, which takes both.
func (m *Manager) persist(id string) {
	if p := m.cfg.Persister; p != nil {
		_ = p.PersistReplState(id)
	}
}

// RestoreState re-adopts the replication control state a manifest
// carried across a restart: the role and fencing term the shard held,
// the owner it followed, and — on owners — the follower positions it
// knew. Restored followers resume non-stale at seq (the position the
// WAL replay reached), so the owner's next event either continues the
// stream or triggers a catch-up; restored followers-of-record start
// stale and re-sync on the next refresh.
func (m *Manager) RestoreState(id string, rs *store.ReplState, seq uint64) {
	s := m.ensure(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.role = rs.Role
	s.term = rs.Term
	s.owner = rs.Owner
	if rs.Role == api.RoleFollower {
		s.stale = false
		s.seq = seq
		return
	}
	for addr, fseq := range rs.Followers {
		s.followers[addr] = &follower{
			addr: addr, mode: fStale, seq: fseq,
			lastErr: "restored from manifest; awaiting re-sync",
		}
	}
}

// RoleOf reports the interface's role and, for followers, the owner's
// address. Untracked interfaces are owners.
func (m *Manager) RoleOf(id string) (role, owner string, stale bool) {
	s := m.lookup(id)
	if s == nil {
		return api.RoleOwner, "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role, s.owner, s.stale
}

// client builds a wire client for a peer shard.
func (m *Manager) client(addr string) *Client {
	return NewClient(addr, m.cfg.Token, peerHTTP)
}

// --- owner side: publish fan-out and sync.

// publish streams one owner publication to every follower. Called by
// the ingestion hook under the feed lock: per-interface ordering is
// inherited, and an error fails the triggering ack.
func (m *Manager) publish(id string, p ingest.Publication) error {
	s := m.lookup(id)
	if s == nil {
		return nil // unreplicated interface
	}
	s.mu.Lock()
	if s.role != api.RoleOwner {
		// Follower feeds never take writes (the node fences them), so a
		// publish here would be a test driving the ingester directly;
		// refuse the ack rather than forge a second stream.
		owner := s.owner
		s.mu.Unlock()
		return api.ErrNotOwner(id, owner)
	}
	s.pubSeq = p.Seq
	var fenced *api.Error
	for _, fo := range s.followers {
		switch {
		case fo.mode == fSeeding && len(fo.pending) >= maxPending:
			fo.fall("sync outpaced by writes; re-syncing")
		case fo.mode == fSeeding:
			fo.pending = append(fo.pending, p)
		case fo.mode == fSynced && p.Seq > fo.seq: // a sync's log read may already have shipped it
			if err := m.send(id, s, fo, p); err != nil {
				if e := notOwnerErr(err); e != nil {
					fenced = e
				}
			}
		}
	}
	if fenced != nil {
		m.fenceLocked(s, id, fenced.Addr)
		s.mu.Unlock()
		// Publish runs under the feed lock, which the persist callback
		// re-enters through Info; flush the demotion off this goroutine.
		go m.persist(id)
		return api.ErrNotOwner(id, fenced.Addr)
	}
	s.mu.Unlock()
	return nil
}

// send pushes one publication to a follower under the current term,
// downgrading it on failure. Caller holds s.mu. Returns the send error
// (the caller only inspects it for fencing).
func (m *Manager) send(id string, s *ifaceState, fo *follower, p ingest.Publication) error {
	ctx, cancel := context.WithTimeout(context.Background(), applyTimeout)
	defer cancel()
	if err := m.client(fo.addr).Apply(ctx, id, s.term, m.cfg.Self, p); err != nil {
		fo.fall(err.Error())
		return err
	}
	fo.seq = p.Seq
	fo.lastErr = ""
	return nil
}

// fenceLocked flips a fenced ex-owner to a stale follower of newOwner
// and schedules the local teardown. Caller holds s.mu. Writes fail
// with not_owner and reads with replica_lagging until Demote finishes
// (tombstone + drop), after which they answer moved.
func (m *Manager) fenceLocked(s *ifaceState, id, newOwner string) {
	s.role = api.RoleFollower
	s.owner = newOwner
	s.stale = true
	s.followers = map[string]*follower{}
	if m.cfg.Demote != nil {
		go m.cfg.Demote(id, newOwner)
	}
}

// notOwnerErr extracts a structured not_owner from a send error.
func notOwnerErr(err error) *api.Error {
	var e *api.Error
	if errors.As(err, &e) && e.Code == api.CodeNotOwner {
		return e
	}
	return nil
}

// SetTargets declares the follower set for an interface this shard
// owns. New and stale targets are synced in the background; removed
// ones get a best-effort unfollow. The router calls this on every
// refresh, so sync retries ride the refresh cadence.
func (m *Manager) SetTargets(id string, addrs []string) error {
	if _, ok := m.cfg.Reg.Get(id); !ok {
		return api.Errf(api.CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
	}
	s := m.ensure(id)
	s.mu.Lock()
	if s.role != api.RoleOwner {
		owner := s.owner
		s.mu.Unlock()
		return api.ErrNotOwner(id, owner)
	}
	want := map[string]bool{}
	for _, a := range addrs {
		if a != "" && a != m.cfg.Self {
			want[a] = true
		}
	}
	var removed, syncs []string
	for addr := range s.followers {
		if !want[addr] {
			delete(s.followers, addr)
			removed = append(removed, addr)
		}
	}
	for addr := range want {
		fo := s.followers[addr]
		if fo == nil {
			fo = &follower{addr: addr, mode: fStale}
			s.followers[addr] = fo
		}
		if fo.mode == fStale {
			fo.mode = fSeeding
			fo.pending = nil
			fo.lastErr = "" // from here on an error means THIS sync failed
			syncs = append(syncs, addr)
		}
	}
	s.mu.Unlock()
	if len(removed) > 0 {
		go m.persist(id)
	}
	for _, addr := range removed {
		go func(addr string) {
			ctx, cancel := context.WithTimeout(context.Background(), applyTimeout)
			defer cancel()
			_ = m.client(addr).Unfollow(ctx, id)
		}(addr)
	}
	for _, addr := range syncs {
		go m.sync(id, addr)
	}
	return nil
}

// sync brings one targeted follower into the stream. A follower that
// holds a prefix of it (it restarted and replayed its own log) gets
// this owner's logged records past its position; anything else — no
// copy there, stale, ahead of this owner, or a position the log no
// longer covers — gets one base frame and continues from the base's
// seq. Either way one drain ships those records and then what published
// meanwhile (the follower was already in fSeeding, so the hook buffered
// it in pending), skipping what the follower holds, and marks it synced.
func (m *Manager) sync(id, addr string) {
	s := m.lookup(id)
	if s == nil {
		return
	}
	from, pubs, logged := m.logTail(id, addr)
	if !logged {
		seq, err := m.shipBase(id, addr, s)
		if err != nil {
			s.mu.Lock()
			if fo := s.followers[addr]; fo != nil && fo.mode == fSeeding {
				fo.fall(err.Error())
			}
			s.mu.Unlock()
			return
		}
		from, pubs = seq, nil
	}
	// The drain holds s.mu, so the hook (which appends to pending under
	// s.mu) cannot interleave half-way.
	s.mu.Lock()
	defer s.mu.Unlock()
	fo := s.followers[addr]
	if fo == nil || fo.mode != fSeeding || s.role != api.RoleOwner {
		return // re-targeted, demoted or superseded mid-sync
	}
	fo.seq = from
	for _, p := range append(pubs, fo.pending...) {
		if p.Seq <= fo.seq {
			continue // already there
		}
		if err := m.send(id, s, fo, p); err != nil {
			return // send downgraded it; the next refresh re-syncs
		}
	}
	fo.pending = nil
	fo.mode = fSynced
	fo.lastErr = ""
	if logged {
		s.catchUps++
	} else {
		s.fullSeeds++
	}
}

// logTail probes the follower's position and returns it with this
// owner's logged publications in (position, head]; ok=false when only a
// base helps.
func (m *Manager) logTail(id, addr string) (from uint64, pubs []ingest.Publication, ok bool) {
	if m.cfg.Persister == nil {
		return 0, nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), applyTimeout)
	st, err := m.client(addr).Status(ctx, id)
	cancel()
	if err != nil || st.Info.Role != api.RoleFollower || st.Info.Stale {
		return 0, nil, false
	}
	if seq, err := m.cfg.Ing.Seq(id); err != nil || st.Info.Seq > seq {
		return 0, nil, false
	}
	pubs, ok = m.cfg.Persister.CatchUp(id, st.Info.Seq)
	return st.Info.Seq, pubs, ok
}

// shipBase captures the interface — under the feed lock, so every
// publish is either inside the frame or in pending — and hosts it on
// the follower through Follow. Returns the base's seq.
func (m *Manager) shipBase(id, addr string, s *ifaceState) (uint64, error) {
	snap, err := m.cfg.Ing.Capture(id)
	if err != nil {
		return 0, fmt.Errorf("seed capture: %v", err)
	}
	frame, err := store.Encode(snap)
	if err != nil {
		return 0, fmt.Errorf("seed encode: %v", err)
	}
	s.mu.Lock()
	term := s.term
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), transferTimeout)
	defer cancel()
	if err := m.client(addr).Follow(ctx, id, frame, term, m.cfg.Self); err != nil {
		return 0, fmt.Errorf("seed transfer: %v", err)
	}
	return snap.Seq, nil
}

// Unhost tears the interface's replication down fleet-side before the
// owner deletes its copy: best-effort unfollow to every follower, then
// the local state is forgotten.
func (m *Manager) Unhost(id string) {
	s := m.lookup(id)
	if s == nil {
		return
	}
	s.mu.Lock()
	var addrs []string
	for addr := range s.followers {
		addrs = append(addrs, addr)
	}
	s.mu.Unlock()
	for _, addr := range addrs {
		ctx, cancel := context.WithTimeout(context.Background(), applyTimeout)
		_ = m.client(addr).Unfollow(ctx, id)
		cancel()
	}
	m.Forget(id)
}

// --- follower side: seed intake, stream apply, fencing.

// Follow hosts a base frame as a follower copy at exactly the owner's
// epoch and sequence, replacing whatever copy was here. A local owner
// at the same or newer term refuses it (term_mismatch); an older one is
// superseded.
func (m *Manager) Follow(frame []byte, term uint64, owner string) (*StatusResponse, error) {
	snap, err := store.Decode(frame)
	if err != nil {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest, "follow: %v", err)
	}
	id := snap.ID
	prep, err := m.cfg.Ing.PrepareSnapshot(snap, m.cfg.Funcs)
	if err != nil {
		return nil, api.Errf(api.CodeRestoreFailed, http.StatusInternalServerError,
			"follow %q: %v", id, err)
	}
	s := m.ensure(id)
	s.mu.Lock()
	if _, hosted := m.cfg.Reg.Get(id); hosted && s.role == api.RoleOwner && s.term >= term {
		cur := s.term
		s.mu.Unlock()
		return nil, api.Errf(api.CodeTermMismatch, http.StatusConflict,
			"follow %q: this shard owns it at term %d (seed term %d)", id, cur, term)
	}
	s.mu.Unlock()
	if m.cfg.Drop != nil {
		m.cfg.Drop(id)
	}
	if _, err := m.cfg.Ing.HostPrepared(prep, snap.Epoch); err != nil {
		return nil, api.Errf(api.CodeRestoreFailed, http.StatusInternalServerError,
			"follow %q: %v", id, err)
	}
	s.mu.Lock()
	s.role = api.RoleFollower
	s.term = term
	s.owner = owner
	s.stale = false
	s.seq = snap.Seq
	s.followers = map[string]*follower{}
	s.mu.Unlock()
	// Make the seed durable before acking it: base + manifest + WAL
	// reset, with the follower's control state inside — a restart
	// rebuilds this copy and resumes the stream from its logged
	// position instead of demanding another full seed.
	if p := m.cfg.Persister; p != nil {
		rs := &store.ReplState{Role: api.RoleFollower, Term: term, Owner: owner}
		if err := p.Adopt(snap, rs); err != nil {
			return nil, api.Errf(api.CodeWALFailed, http.StatusInternalServerError,
				"follow %q: persist seed: %v", id, err)
		}
	}
	if m.cfg.ClearTombstone != nil {
		m.cfg.ClearTombstone(id)
	}
	return m.Status(id)
}

// Apply lands one streamed publication from owner at term on a
// follower copy. Term fencing happens first: an older term is rejected
// with not_owner (carrying who this follower believes owns the
// interface), a newer term is adopted (the sender won a promotion). A
// sequence gap or a divergent apply marks the follower stale and
// answers replica_out_of_sync, telling the owner to re-sync.
func (m *Manager) Apply(id string, term uint64, owner string, p ingest.Publication) error {
	s := m.lookup(id)
	if s == nil {
		return api.Errf(api.CodeNotFound, http.StatusNotFound,
			"no follower copy of %q here", id)
	}
	s.mu.Lock()
	if s.role != api.RoleFollower {
		addr := m.cfg.Self
		s.mu.Unlock()
		return api.ErrNotOwner(id, addr)
	}
	termAdopted := false
	switch {
	case term < s.term:
		cur := s.owner
		s.mu.Unlock()
		return api.ErrNotOwner(id, cur)
	case term > s.term:
		s.term = term
		s.owner = owner
		termAdopted = true
	case owner != s.owner && s.owner != "":
		// Same term, different claimed owner: split brain. Refuse both.
		cur := s.owner
		s.mu.Unlock()
		return api.ErrNotOwner(id, cur)
	}
	if s.stale {
		cur := s.owner
		s.mu.Unlock()
		return api.Errf(api.CodeReplicaOutOfSync, http.StatusConflict,
			"follower of %q is stale; re-sync it (owner %s)", id, cur)
	}
	s.mu.Unlock()
	if termAdopted {
		m.persist(id)
	}

	// The ingest apply takes the feed lock; state.mu must not be held
	// across it (the publish hook takes the locks in the other order).
	err := m.cfg.Ing.Apply(id, p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && (s.role != api.RoleFollower || s.term != term) {
		// Promoted (or re-termed) while this apply waited for the feed:
		// the promotion's fence bump took the slot, and the sender is a
		// deposed owner that must fail its ack, not a lagging follower's
		// source — answering out-of-sync would let it ack anyway.
		cur := s.owner
		if s.role == api.RoleOwner {
			cur = m.cfg.Self
		}
		return api.ErrNotOwner(id, cur)
	}
	if err != nil {
		s.stale = true
		return api.Errf(api.CodeReplicaOutOfSync, http.StatusConflict,
			"apply seq %d to follower of %q: %v", p.Seq, id, err)
	}
	s.seq = p.Seq
	return nil
}

// PromoteTarget names one surviving follower and the sequence number
// the promoting router observed on it — a survivor already at the new
// owner's sequence keeps streaming without a re-seed.
type PromoteTarget struct {
	Addr string `json:"addr"`
	Seq  uint64 `json:"seq"`
}

// Promote flips this follower to owner under a strictly newer term —
// the failover CAS. The epoch is bumped through the replication
// stream, so cursors minted against the ex-owner expire and surviving
// followers bump in lockstep; targets not at this shard's sequence
// are re-synced in the background. Re-promoting an owner at the same
// term is idempotent.
func (m *Manager) Promote(id string, term uint64, targets []PromoteTarget) (*StatusResponse, error) {
	s := m.lookup(id)
	if s == nil {
		return nil, api.Errf(api.CodeNotFound, http.StatusNotFound,
			"no replica of %q here", id)
	}
	seq, err := m.cfg.Ing.Seq(id)
	if err != nil {
		return nil, api.Errf(api.CodeNotFound, http.StatusNotFound,
			"promote %q: %v", id, err)
	}
	s.mu.Lock()
	if s.role == api.RoleOwner {
		if term == s.term {
			s.mu.Unlock()
			return m.Status(id) // lost response, retried promote
		}
		if term < s.term {
			cur := s.term
			s.mu.Unlock()
			return nil, api.Errf(api.CodeTermMismatch, http.StatusConflict,
				"promote %q: already owner at term %d (promote term %d)", id, cur, term)
		}
		// A newer-term promote of an existing owner just adopts the
		// term and targets below.
	} else {
		if term <= s.term {
			cur := s.term
			s.mu.Unlock()
			return nil, api.Errf(api.CodeTermMismatch, http.StatusConflict,
				"promote %q: follower term %d is not older than promote term %d", id, cur, term)
		}
		if s.stale {
			owner := s.owner
			s.mu.Unlock()
			return nil, api.ErrReplicaLagging(id, owner)
		}
	}
	wasFollower := s.role == api.RoleFollower
	s.role = api.RoleOwner
	s.term = term
	s.owner = ""
	s.stale = false
	s.followers = map[string]*follower{}
	var syncs []string
	for _, t := range targets {
		if t.Addr == "" || t.Addr == m.cfg.Self {
			continue
		}
		fo := &follower{addr: t.Addr, seq: t.Seq} // fSeeding
		if t.Seq == seq {
			fo.mode = fSynced // survivor in lockstep: stream continues
		} else {
			syncs = append(syncs, t.Addr)
		}
		s.followers[t.Addr] = fo
	}
	s.mu.Unlock()
	// The won term is durable before the fence bump publishes under it:
	// a crash right here restarts as the owner it just became.
	m.persist(id)

	if wasFollower {
		// Fence: bump the epoch through the stream under the new term.
		// Synced survivors follow the bump; cursors minted against the
		// ex-owner expire instead of silently paging a diverged set.
		if _, _, err := m.cfg.Ing.PublishBump(id); err != nil {
			return nil, api.FromErr(err)
		}
	}
	for _, addr := range syncs {
		go m.sync(id, addr)
	}
	return m.Status(id)
}

// Handoff moves ownership of id to the synced follower at to (a
// normalized base URL) — a planned failover, the only way an interface
// changes owner while its owner is alive. Under the feed lock
// (ingest.Handoff) it requires to in sync at exactly the feed's sequence (replica_lagging
// otherwise, nothing changed) and promotes it at term+1 with the other
// in-sync followers as targets. Only a successful promote seals the feed
// (later submissions answer moved → to); then Config.Demote tombstones
// and drops the copy. A lost promote response leaves this shard an
// unsealed owner of the older term: the winner refuses its next
// publish (not_owner), which fences it before that write is acked.
func (m *Manager) Handoff(id, to string) (*StatusResponse, error) {
	if to == m.cfg.Self {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"handoff %q: target %s is this shard", id, to)
	}
	if _, ok := m.cfg.Reg.Get(id); !ok {
		return nil, api.Errf(api.CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
	}
	s := m.ensure(id)
	var won *StatusResponse
	err := m.cfg.Ing.Handoff(id, api.ErrMoved(id, to), func(seq uint64) error {
		s.mu.Lock()
		if s.role != api.RoleOwner {
			owner := s.owner
			s.mu.Unlock()
			return api.ErrNotOwner(id, owner)
		}
		if fo := s.followers[to]; fo == nil || fo.mode != fSynced || fo.seq != seq {
			s.mu.Unlock()
			return api.Errf(api.CodeReplicaLagging, http.StatusServiceUnavailable,
				"handoff %q: %s is not an in-sync follower at seq %d", id, to, seq)
		}
		term := s.term + 1
		var others []PromoteTarget
		for addr, fo := range s.followers {
			if addr != to && fo.mode == fSynced {
				others = append(others, PromoteTarget{Addr: addr, Seq: fo.seq})
			}
		}
		s.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), applyTimeout)
		defer cancel()
		st, err := m.client(to).Promote(ctx, id, term, others)
		var refused *api.Error
		if err != nil && !errors.As(err, &refused) {
			return api.Errf(api.CodeShardUnavailable, http.StatusBadGateway,
				"handoff %q: promote on %s did not answer (%v); if it was applied, the newer term fences this shard on its next publish or refresh", id, to, err)
		}
		won = st
		return err
	})
	if err != nil {
		return nil, api.FromErr(err)
	}
	if m.cfg.Demote != nil {
		m.cfg.Demote(id, to)
	}
	return won, nil
}

// DemoteRequest asks a shard to give up an owner claim that lost a
// term race (e.g. an ex-owner that restarted from disk after a
// failover promoted someone else).
type DemoteRequest struct {
	// To is the winning owner's base URL — where the tombstone points.
	To string `json:"to"`
	// Term is the winner's term; the demote only proceeds if the local
	// claim is strictly older.
	Term uint64 `json:"term"`
}

// Demote drops this shard's owner claim in favor of the owner at
// req.To, which holds a strictly newer term. The copy is flipped to a
// stale follower immediately (writes answer not_owner, reads
// replica_lagging) and torn down in the background (tombstone first,
// so it then answers moved — never not_found).
func (m *Manager) Demote(id string, req DemoteRequest) error {
	if _, ok := m.cfg.Reg.Get(id); !ok {
		return api.Errf(api.CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
	}
	s := m.ensure(id)
	s.mu.Lock()
	if s.role != api.RoleOwner {
		s.mu.Unlock()
		return nil // already not an owner; nothing to give up
	}
	if s.term >= req.Term {
		cur := s.term
		s.mu.Unlock()
		return api.Errf(api.CodeTermMismatch, http.StatusConflict,
			"demote %q: local term %d is not older than %d", id, cur, req.Term)
	}
	m.fenceLocked(s, id, req.To)
	s.term = req.Term
	s.mu.Unlock()
	m.persist(id)
	return nil
}

// Unfollow drops a follower copy (the owner shrank its target set, or
// the interface was deleted). No tombstone: the copy was never
// authoritative.
func (m *Manager) Unfollow(id string) error {
	s := m.lookup(id)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.role != api.RoleFollower {
		s.mu.Unlock()
		return api.ErrNotOwner(id, m.cfg.Self)
	}
	s.mu.Unlock()
	if m.cfg.Drop != nil {
		m.cfg.Drop(id)
	}
	m.Forget(id)
	return nil
}

// --- status.

// StatusResponse is one interface's replication status plus its
// current serving position, the tuple failover candidates are ranked
// by: (term, seq, epoch).
type StatusResponse struct {
	ID    string              `json:"id"`
	Epoch uint64              `json:"epoch"`
	Info  api.ReplicationInfo `json:"replication"`
}

// Info returns the interface's replication row for health reports,
// nil when untracked (unreplicated owner).
func (m *Manager) Info(id string) *api.ReplicationInfo {
	s := m.lookup(id)
	if s == nil {
		return nil
	}
	seq, _ := m.cfg.Ing.Seq(id) // before s.mu: lock order (see ifaceState)
	s.mu.Lock()
	defer s.mu.Unlock()
	info := &api.ReplicationInfo{
		Role: s.role, Term: s.term, Stale: s.stale, Owner: s.owner,
		Seeds: s.fullSeeds, CatchUps: s.catchUps,
	}
	if s.role == api.RoleFollower {
		info.Seq = s.seq
	} else {
		info.Seq = seq
	}
	addrs := make([]string, 0, len(s.followers))
	for addr := range s.followers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		fo := s.followers[addr]
		info.Followers = append(info.Followers, api.ReplicaFollower{
			Addr: addr, Synced: fo.mode == fSynced, Seq: fo.seq, Error: fo.lastErr,
		})
	}
	return info
}

// Status returns the interface's status response, or not_found.
func (m *Manager) Status(id string) (*StatusResponse, error) {
	h, ok := m.cfg.Reg.Get(id)
	if !ok {
		return nil, api.Errf(api.CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
	}
	info := m.Info(id)
	if info == nil {
		seq, _ := m.cfg.Ing.Seq(id)
		info = &api.ReplicationInfo{Role: api.RoleOwner, Seq: seq}
	}
	return &StatusResponse{ID: id, Epoch: h.Epoch(), Info: *info}, nil
}

// StatusAll returns every tracked interface's status, sorted by ID.
func (m *Manager) StatusAll() []StatusResponse {
	m.mu.Lock()
	ids := make([]string, 0, len(m.states))
	for id := range m.states {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	sort.Strings(ids)
	out := make([]StatusResponse, 0, len(ids))
	for _, id := range ids {
		if st, err := m.Status(id); err == nil {
			out = append(out, *st)
		}
	}
	return out
}
