// Package shard partitions hosted interfaces across processes. It has
// two halves:
//
//   - Node: a shard — the full local service (internal/api.Service over
//     its registry and ingester) plus a shard-admin surface that can
//     export an interface as a checksummed snapshot frame, accept one
//     exported by another shard, relinquish ownership after a handoff,
//     and report load. A relinquished interface leaves a tombstone, so
//     requests that still target this shard get a structured "moved"
//     error carrying the new owner's address instead of a 404.
//
//   - Router: a drop-in api.Servicer that owns an interface→shard
//     placement map, proxies every per-interface operation to the
//     owning shard through the pi/client SDK, fans out the fleet-wide
//     operations (list, health, debug, snapshot), and migrates
//     interfaces between shards live: snapshot on the source, transfer
//     the frame, restore on the target at the saved epoch + 1, then
//     atomically flip the placement map. Default placement is
//     rendezvous hashing with explicit pins on top.
//
// Because PR 4 made per-interface state self-contained — a snapshot
// frame carries (accumulated log, dataset tables, epochs) and re-mines
// to exactly the interface that was serving — moving an interface is
// moving one byte blob. Epoch discipline extends across the move: the
// target hosts at saved epoch + 1, so epoch-bound cursors minted by
// the source expire with cursor_expired instead of silently paging a
// restored result set.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/api"
	"repro/internal/ingest"
	"repro/internal/qlog"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/pi/client"
)

// NodeOptions configure a shard node.
type NodeOptions struct {
	// Addr is this shard's advertised base URL — what moved errors,
	// load reports and the router hand to clients (e.g.
	// "http://10.0.0.5:8081"). A bare host:port gets an http scheme.
	Addr string
	// Funcs, when set, re-attaches table-valued functions — code a
	// snapshot frame cannot carry — to every accepted interface's store.
	Funcs func(id string, st *store.Store)
	// Persister, when set, persists accepted interfaces under this
	// shard's data dir (and the service layer removes relinquished
	// ones), so a shard restart keeps serving what it owned. It also
	// makes tombstones durable: relocations are written to the data
	// dir and reloaded on boot, so a restarted shard answers moved —
	// never not_found — for interfaces it handed off.
	Persister *ingest.Persister
	// Token authenticates this node's outbound replication calls to
	// peer shards (seeding followers, streaming events). Use the
	// fleet's shared admin token.
	Token string
}

// Node is one shard: the local service plus the shard-admin state.
// It implements api.Servicer by delegating to the wrapped service,
// except that per-interface operations on an interface this node has
// relinquished return a structured moved error with the new owner's
// address — the contract pi/client follows transparently and the
// router uses to repair its placement map.
type Node struct {
	*api.Service
	ing  *ingest.Ingester
	opts NodeOptions
	mgr  *replica.Manager

	// adminMu serializes accept/relinquish so two concurrent migrations
	// cannot interleave on one interface.
	adminMu sync.Mutex

	mu      sync.RWMutex
	moved   map[string]string // tombstones: interface ID -> new owner's base URL
	tombErr string            // last tombstone-persist failure, for load reports

	// tombMu serializes tombstone file writes (replicate.go).
	tombMu sync.Mutex
}

var _ api.Servicer = (*Node)(nil)

// NewNode wraps the service and its ingester as a shard. The ingester
// must be the one wired into the service: accept and export go through
// its live feeds.
func NewNode(svc *api.Service, ing *ingest.Ingester, opts NodeOptions) (*Node, error) {
	addr, err := NormalizeAddr(opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("shard: node needs an advertised address: %w", err)
	}
	opts.Addr = addr
	if ing == nil {
		return nil, fmt.Errorf("shard: node needs an ingester (snapshot export rides its feeds)")
	}
	n := &Node{Service: svc, ing: ing, opts: opts, moved: map[string]string{}}
	cfg := replica.Config{
		Self:           addr,
		Token:          opts.Token,
		Ing:            ing,
		Reg:            svc.Registry(),
		Funcs:          opts.Funcs,
		Demote:         n.demoteLocal,
		Drop:           n.dropLocal,
		ClearTombstone: n.clearTombstone,
	}
	p := opts.Persister
	if p != nil {
		moved, err := loadTombstones(p.Dir())
		if err != nil {
			n.tombErr = err.Error()
		}
		n.moved = moved
		// Persistence makes replication state crash-proof: seeds persist
		// before they are acked, control-plane changes rewrite the
		// manifest, and (with a WAL) trailing followers re-sync from the
		// owner's log instead of taking a fresh seed.
		cfg.Adopt = p.Adopt
		cfg.Persist = func(id string) { _ = p.PersistReplState(id) }
		cfg.CatchUp = p.CatchUp
	}
	mgr, err := replica.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	n.mgr = mgr
	if p != nil {
		p.SetReplStateSource(func(id string) *store.ReplState {
			info := mgr.Info(id)
			if info == nil {
				return nil
			}
			rs := &store.ReplState{Role: info.Role, Term: info.Term, Owner: info.Owner}
			if len(info.Followers) > 0 {
				rs.Followers = make(map[string]uint64, len(info.Followers))
				for _, fo := range info.Followers {
					rs.Followers[fo.Addr] = fo.Seq
				}
			}
			return rs
		})
		// Re-adopt what the manifests remembered: a restarted ex-owner
		// answers from the term it held (not a blank slate a stale peer
		// could out-fence), and a restarted follower resumes the stream
		// at the sequence its restore reached.
		for id, rs := range p.ReplStates() {
			seq, _ := ing.Seq(id)
			mgr.RestoreState(id, rs, seq)
		}
	}
	// Every acked publish streams to followers before the ack leaves
	// this process; interfaces with no followers pay one map lookup.
	ing.SetPublishHook(mgr.Hook())
	return n, nil
}

// Addr returns the shard's advertised base URL.
func (n *Node) Addr() string { return n.opts.Addr }

// NormalizeAddr turns a shard address ("host:port" or a full URL) into
// a canonical base URL, so addresses compare equal regardless of how
// the operator spelled them. Delegates to the SDK's canonicalizer —
// the same one that follows moved errors, so the two can never drift.
func NormalizeAddr(addr string) (string, error) {
	s, err := client.NormalizeBase(addr)
	if err != nil {
		return "", fmt.Errorf("shard: %w", err)
	}
	return s, nil
}

// movedErr returns the relocation error for a tombstoned interface,
// nil otherwise.
func (n *Node) movedErr(id string) *api.Error {
	n.mu.RLock()
	addr, ok := n.moved[id]
	n.mu.RUnlock()
	if !ok {
		return nil
	}
	return api.ErrMoved(id, addr)
}

// Moved returns the tombstoned relocations this shard remembers
// (interface ID -> new owner), for load reports and tests.
func (n *Node) Moved() map[string]string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[string]string, len(n.moved))
	for id, addr := range n.moved {
		out[id] = addr
	}
	return out
}

// --- api.Servicer overrides: tombstone and replication-role checks
// in front of every per-interface operation.
//
// Reads serve from follower copies (that is what read fan-out buys),
// unless the follower is stale — then replica_lagging points at the
// owner. Writes only land on owners: a follower answers not_owner
// with the owner's address, which the SDK follows exactly like moved
// (the request was not processed, so the re-issue is safe).

// readErr gates read-only per-interface operations.
func (n *Node) readErr(id string) *api.Error {
	if e := n.movedErr(id); e != nil {
		return e
	}
	if role, owner, stale := n.mgr.RoleOf(id); role == api.RoleFollower && stale {
		return api.ErrReplicaLagging(id, owner)
	}
	return nil
}

// writeErr gates mutating per-interface operations.
func (n *Node) writeErr(id string) *api.Error {
	if e := n.movedErr(id); e != nil {
		return e
	}
	if role, owner, _ := n.mgr.RoleOf(id); role == api.RoleFollower {
		return api.ErrNotOwner(id, owner)
	}
	return nil
}

func (n *Node) GetInterface(id string) (*api.InterfaceDetail, error) {
	if e := n.readErr(id); e != nil {
		return nil, e
	}
	return n.Service.GetInterface(id)
}

func (n *Node) Epoch(id string) (*api.EpochResponse, error) {
	if e := n.readErr(id); e != nil {
		return nil, e
	}
	return n.Service.Epoch(id)
}

func (n *Node) Page(id string) (string, error) {
	if e := n.readErr(id); e != nil {
		return "", e
	}
	return n.Service.Page(id)
}

func (n *Node) Query(id string, req api.QueryRequest) (*api.QueryResponse, error) {
	if e := n.readErr(id); e != nil {
		return nil, e
	}
	return n.Service.Query(id, req)
}

// QueryIntoCtx keeps the zero-alloc, context-carrying serving path
// behind the shard's gate: the embedded Service satisfies
// api.CtxQuerier by promotion, and without this override the
// transport's type assertion would bypass the relinquish/tombstone
// check that turns queries for moved interfaces into structured
// `moved` errors.
func (n *Node) QueryIntoCtx(ctx context.Context, id string, req api.QueryRequest, resp *api.QueryResponse) error {
	if e := n.readErr(id); e != nil {
		return e
	}
	return n.Service.QueryIntoCtx(ctx, id, req, resp)
}

func (n *Node) IngestReady(id string) error {
	if e := n.writeErr(id); e != nil {
		return e
	}
	return n.Service.IngestReady(id)
}

func (n *Node) IngestLog(id string, entries []qlog.Entry, flush bool) (*api.IngestAck, error) {
	if e := n.writeErr(id); e != nil {
		return nil, e
	}
	return n.Service.IngestLog(id, entries, flush)
}

func (n *Node) AppendRows(id string, req api.RowsRequest, flush bool) (*api.RowsAck, error) {
	if e := n.writeErr(id); e != nil {
		return nil, e
	}
	return n.Service.AppendRows(id, req, flush)
}

func (n *Node) MutateRows(id string, req api.MutateRequest) (*api.MutateAck, error) {
	if e := n.writeErr(id); e != nil {
		return nil, e
	}
	return n.Service.MutateRows(id, req)
}

func (n *Node) DeleteInterface(id string) (*api.DeleteAck, error) {
	if e := n.writeErr(id); e != nil {
		return nil, e
	}
	ack, err := n.Service.DeleteInterface(id)
	if err == nil {
		// Tear the replication down fleet-side (best effort, off the
		// request path): followers drop their copies instead of serving
		// a deleted interface's reads forever.
		go n.mgr.Unhost(id)
	}
	return ack, err
}

// Health annotates the local health report with per-interface
// replication status — the router's refresh reads roles, terms and
// follower sync state out of the same single poll it already does.
func (n *Node) Health() *api.Health {
	h := n.Service.Health()
	h.Replication = true
	for i := range h.Interfaces {
		h.Interfaces[i].Replication = n.mgr.Info(h.Interfaces[i].ID)
	}
	return h
}

// --- shard-admin operations.

// LoadReport is the shard-load summary the router (or an operator)
// polls when deciding placements.
type LoadReport struct {
	Addr          string  `json:"addr"`
	Interfaces    int     `json:"interfaces"`
	Queries       uint64  `json:"queries"` // total served across interfaces
	Epochs        uint64  `json:"epochs"`  // summed interface epochs (update-traffic proxy)
	Moved         int     `json:"moved"`   // tombstoned relocations
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// Load reports this shard's serving load.
func (n *Node) Load() *LoadReport {
	h := n.Service.Health()
	rep := &LoadReport{
		Addr:          n.opts.Addr,
		Interfaces:    len(h.Interfaces),
		UptimeSeconds: h.UptimeSeconds,
	}
	for _, row := range h.Interfaces {
		rep.Queries += row.Queries
		rep.Epochs += row.Epoch
	}
	n.mu.RLock()
	rep.Moved = len(n.moved)
	n.mu.RUnlock()
	return rep
}

// Export snapshots one hosted interface for transfer: buffered log
// entries and rows flush first so the frame reflects everything
// acknowledged to clients, then (log, dataset, epochs) is captured and
// encoded into the same checksummed frame format .snap files use. The
// returned epoch is the interface's serving epoch inside the frame —
// the CAS token a migration hands back to Relinquish, so a handoff
// that raced a write is detected instead of silently dropped.
func (n *Node) Export(id string) ([]byte, uint64, error) {
	if e := n.writeErr(id); e != nil {
		return nil, 0, e
	}
	if _, ok := n.Registry().Get(id); !ok {
		return nil, 0, api.Errf(api.CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
	}
	if _, err := n.ing.Flush(id); err != nil {
		if errors.Is(err, ingest.ErrNoFeed) {
			// A registry-only interface (reg.Add, no live feed) has no
			// miner and therefore no accumulated log to export — say so,
			// instead of a misleading snapshot failure.
			return nil, 0, api.Errf(api.CodeIngestDisabled, http.StatusNotImplemented,
				"export %q: interface is hosted without a live feed; only live-hosted interfaces can be exported", id)
		}
		return nil, 0, api.Errf(api.CodeSnapshotFailed, http.StatusInternalServerError,
			"export %q: flush: %v", id, err)
	}
	snap, err := n.ing.Capture(id)
	if err != nil {
		return nil, 0, api.Errf(api.CodeSnapshotFailed, http.StatusInternalServerError,
			"export %q: %v", id, err)
	}
	frame, err := store.Encode(snap)
	if err != nil {
		return nil, 0, api.Errf(api.CodeSnapshotFailed, http.StatusInternalServerError,
			"export %q: %v", id, err)
	}
	return frame, snap.Epoch, nil
}

// AcceptResult reports a completed accept.
type AcceptResult struct {
	ID         string `json:"id"`
	Title      string `json:"title"`
	Epoch      uint64 `json:"epoch"` // hosted epoch: saved + 1
	LogEntries int    `json:"logEntries"`
	Rows       int    `json:"rows"`
	Bytes      int    `json:"bytes"`
}

// Accept hosts an interface from an exported snapshot frame: the frame
// is checksum-verified and decoded, the saved log re-mines to exactly
// the interface the source was serving, and the result is hosted at
// saved epoch + 1 — same-or-later epoch keeps client epoch comparisons
// monotone, and the strict bump expires epoch-bound cursors minted by
// the source (cursor_expired) instead of letting them silently page a
// restored result set. With persistence wired, the accepted snapshot
// is saved under this shard's data dir before Accept returns, so a
// restart keeps serving it; a save failure unwinds the accept rather
// than acknowledging a handoff this shard could lose.
func (n *Node) Accept(frame []byte) (*AcceptResult, error) {
	n.adminMu.Lock()
	defer n.adminMu.Unlock()
	snap, err := store.Decode(frame)
	if err != nil {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest, "accept: %v", err)
	}
	// Every failure-prone step runs BEFORE any existing copy is torn
	// down, so a failed accept never leaves this shard serving less
	// than it did: prepare (restore + re-mine), then persist, then the
	// teardown + registration that cannot realistically fail.
	prep, err := n.ing.PrepareSnapshot(snap, n.opts.Funcs)
	if err != nil {
		return nil, api.Errf(api.CodeRestoreFailed, http.StatusInternalServerError,
			"accept %q: %v", snap.ID, err)
	}
	epoch := snap.Epoch + 1
	// Re-accept replaces a copy a previous migration round left here
	// (its relinquish never settled, so the round was retried with a
	// fresh export). The fresh frame supersedes the stale copy; the
	// epoch stays monotone for clients that polled the old one.
	h, exists := n.Registry().Get(snap.ID)
	if exists {
		if cur := h.Epoch(); epoch <= cur {
			epoch = cur + 1
		}
	}
	if p := n.opts.Persister; p != nil {
		// Adopt, not a bare file write: it also writes the manifest and
		// resets the interface's log to the frame's sequence — the old
		// tail described state this frame replaced.
		saved := *snap
		saved.Epoch = epoch
		if err := p.Adopt(&saved, nil); err != nil {
			return nil, api.Errf(api.CodeSnapshotFailed, http.StatusInternalServerError,
				"accept %q: persist: %v", snap.ID, err)
		}
	}
	if exists {
		n.ing.Detach(snap.ID)
		n.Registry().Remove(snap.ID)
	}
	if _, err := n.ing.HostPrepared(prep, epoch); err != nil {
		return nil, api.Errf(api.CodeRestoreFailed, http.StatusInternalServerError,
			"accept %q: %v", snap.ID, err)
	}
	// The interface is hosted here now: an earlier relinquish tombstone
	// (it left and came back) no longer applies, and any follower state
	// is superseded — an accepted interface is owned.
	n.clearTombstone(snap.ID)
	n.mgr.Forget(snap.ID)

	rows := 0
	for _, t := range snap.Tables {
		rows += len(t.Rows)
	}
	return &AcceptResult{
		ID:         snap.ID,
		Title:      snap.Title,
		Epoch:      epoch,
		LogEntries: len(snap.Log),
		Rows:       rows,
		Bytes:      len(frame),
	}, nil
}

// RelinquishResult reports a completed handoff.
type RelinquishResult struct {
	ID    string `json:"id"`
	To    string `json:"to"`
	Epoch uint64 `json:"epoch"` // the epoch the handoff was CAS'd at
	// Warning reports a non-fatal wrinkle on a committed handoff (e.g.
	// the local snapshot file could not be removed and will resurrect
	// this copy on a restart).
	Warning string `json:"warning,omitempty"`
}

// Relinquish hands the interface off to the shard at to. The epoch
// check against expectEpoch — the value Export returned — is atomic
// with sealing the live feed (ingest.DetachAtEpoch): every write path
// publishes under the same feed lock, so a write either lands before
// the check (bumping the epoch and failing the CAS) or after the seal
// (rejected, never acknowledged) — an acknowledged write can never be
// silently dropped by the handoff. On a match the interface is
// unhosted, its local snapshot file removed, and a tombstone recorded
// FIRST, so the handoff window answers moved — never not_found, which
// routers treat as "drop the placement".
//
// A non-zero expectEpoch that no longer matches fails with
// epoch_mismatch and changes nothing: the caller re-exports and
// retries, so the target never keeps a stale copy. expectEpoch 0
// skips the check (forced handoff). Relinquishing an interface this
// node already handed to the same target answers moved — callers that
// lost a success response can treat that as confirmation.
func (n *Node) Relinquish(id, to string, expectEpoch uint64) (*RelinquishResult, error) {
	n.adminMu.Lock()
	defer n.adminMu.Unlock()
	toAddr, err := NormalizeAddr(to)
	if err != nil {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"relinquish %q: %v", id, err)
	}
	if toAddr == n.opts.Addr {
		return nil, api.Errf(api.CodeBadRequest, http.StatusBadRequest,
			"relinquish %q: target %s is this shard", id, toAddr)
	}
	if e := n.writeErr(id); e != nil {
		return nil, e
	}
	h, ok := n.Registry().Get(id)
	if !ok {
		return nil, api.Errf(api.CodeNotFound, http.StatusNotFound, "unknown interface %q", id)
	}

	cur, err := n.ing.DetachAtEpoch(id, expectEpoch)
	switch {
	case errors.Is(err, ingest.ErrEpochMismatch):
		return nil, api.Errf(api.CodeEpochMismatch, http.StatusConflict,
			"interface %q is at epoch %d, handoff expected epoch %d; re-export and retry",
			id, cur, expectEpoch)
	case errors.Is(err, ingest.ErrNoFeed):
		// Hosted without ingestion: there is no write path to race, so
		// a plain epoch check suffices.
		cur = h.Epoch()
		if expectEpoch != 0 && cur != expectEpoch {
			return nil, api.Errf(api.CodeEpochMismatch, http.StatusConflict,
				"interface %q is at epoch %d, handoff expected epoch %d; re-export and retry",
				id, cur, expectEpoch)
		}
	case err != nil:
		return nil, api.Errf(api.CodeSnapshotFailed, http.StatusInternalServerError,
			"relinquish %q: drain: %v", id, err)
	}

	// Tombstone before the registry removal: the window in between
	// answers moved (followed transparently), never not_found.
	n.setTombstone(id, toAddr)
	res := &RelinquishResult{ID: id, To: toAddr, Epoch: cur}
	if _, derr := n.Service.DeleteInterface(id); derr != nil {
		if _, still := n.Registry().Get(id); still {
			// Nothing was removed: roll the tombstone back — the source
			// still fully owns the interface, so this is a clean
			// structured refusal the migration can unwind from.
			n.clearTombstone(id)
			return nil, derr
		}
		// The registry entry is gone: for serving purposes the handoff
		// IS committed (requests here answer moved, the target owns the
		// interface). Only the durable snapshot lingers — report success
		// with the warning rather than an error a migration would
		// misread as "the source still owns it" and use to delete the
		// target's only good copy. Like tombstones, the stale .snap is
		// reconciled at restart by placement refresh.
		res.Warning = fmt.Sprintf("handoff committed, but the local snapshot was not removed and will resurrect on restart: %v", derr)
	}
	// The new owner inherits replication: any follower set this shard
	// maintained is re-targeted (and re-seeded where needed) by the
	// router's next refresh against the accepting shard.
	n.mgr.Forget(id)
	return res, nil
}
