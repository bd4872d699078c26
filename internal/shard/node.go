// Package shard partitions hosted interfaces across processes. It has
// two halves:
//
//   - Node: a shard — the full local service (internal/api.Service over
//     its registry and ingester) plus the replication manager
//     (internal/replica) that syncs, streams to and promotes the copies
//     of its interfaces on other shards, and a load report. An
//     interface this shard gave up (handed off, or fenced by a newer
//     term) leaves a tombstone, so requests that still target this
//     shard get a structured "moved" error carrying the new owner's
//     address instead of a 404.
//
//   - Router: a drop-in api.Servicer that owns an interface→shard
//     placement map, proxies every per-interface operation to the
//     owning shard through the pi/client SDK, fans out the fleet-wide
//     operations (list, health, debug, snapshot), keeps each owner at
//     its replication factor, and changes owners by the one protocol
//     the fleet has: promote a synced follower at term+1. A failover
//     does it because the owner died; a migration does it on purpose —
//     sync the target as a follower, stream until it is in sync, then
//     have the owner hand off — and flips the placement map. Default
//     placement is rendezvous hashing with explicit pins on top.
//
// Per-interface state is self-contained — a snapshot frame carries
// (accumulated log, dataset tables, epochs) and re-mines to exactly the
// interface that was serving — so a copy on another shard is one seed
// frame plus the publications streamed after it. Epoch discipline
// extends across an owner change: the promoted copy bumps its epoch
// through the stream, so epoch-bound cursors minted by the old owner
// expire with cursor_expired instead of silently paging a result set
// the new owner may have moved past.
package shard

import (
	"context"
	"errors"
	"fmt"
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
	// snapshot frame cannot carry — to every seeded interface's store.
	Funcs func(id string, st *store.Store)
	// Persister, when set, persists synced interfaces under this
	// shard's data dir (and the service layer removes given-up ones),
	// so a shard restart keeps serving what it held. It also makes
	// tombstones durable: relocations are written to the data dir and
	// reloaded on boot, so a restarted shard answers moved — never
	// not_found — for interfaces it handed off.
	Persister *ingest.Persister
	// Token authenticates this node's outbound replication calls to
	// peer shards (syncing followers, streaming publications, promoting a
	// handoff target). Use the fleet's shared admin token.
	Token string
}

// Node is one shard: the local service plus the shard-admin state.
// It implements api.Servicer by delegating to the wrapped service,
// except that per-interface operations on an interface this node has
// given up return a structured moved error with the new owner's
// address — the contract pi/client follows transparently and the
// router uses to repair its placement map.
type Node struct {
	*api.Service
	ing  *ingest.Ingester
	opts NodeOptions
	mgr  *replica.Manager

	mu      sync.RWMutex
	moved   map[string]string // tombstones: interface ID -> new owner's base URL
	tombErr string            // last tombstone-persist failure, for load reports

	// tombMu serializes tombstone file writes (replicate.go).
	tombMu sync.Mutex
}

var _ api.Servicer = (*Node)(nil)

// NewNode wraps the service and its ingester as a shard. The ingester
// must be the one wired into the service: syncs, applies and handoffs
// go through its live feeds.
func NewNode(svc *api.Service, ing *ingest.Ingester, opts NodeOptions) (*Node, error) {
	addr, err := NormalizeAddr(opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("shard: node needs an advertised address: %w", err)
	}
	opts.Addr = addr
	if ing == nil {
		return nil, fmt.Errorf("shard: node needs an ingester (replication rides its feeds)")
	}
	n := &Node{Service: svc, ing: ing, opts: opts, moved: map[string]string{}}
	if p := opts.Persister; p != nil {
		moved, err := loadTombstones(p.Dir())
		if err != nil {
			n.tombErr = err.Error()
		}
		n.moved = moved
	}
	n.mgr, err = replica.NewManager(replica.Config{
		Self:           addr,
		Token:          opts.Token,
		Ing:            ing,
		Reg:            svc.Registry(),
		Funcs:          opts.Funcs,
		Demote:         n.demoteLocal,
		Drop:           n.dropLocal,
		ClearTombstone: n.clearTombstone,
		Persister:      opts.Persister,
	})
	if err != nil {
		return nil, err
	}
	// Every acked publish streams to followers before the ack leaves
	// this process; interfaces with no followers pay one map lookup.
	ing.SetPublishHook(n.mgr.Hook())
	return n, nil
}

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

// --- api.Servicer overrides: tombstone and replication-role checks
// in front of every per-interface operation.
//
// Reads serve from follower copies (that is what read fan-out buys),
// unless the follower is stale — then replica_lagging points at the
// owner. Writes only land on owners: a follower answers not_owner
// with the owner's address, which the SDK follows exactly like moved
// (the request was not processed, so the re-issue is safe).

// gate runs one per-interface operation behind the shard's checks, in
// order: the tombstone (moved), then the replication role (not_owner
// for a write on a follower, replica_lagging for a read on a stale
// one), then op, whose not_found orMoved turns into moved.
func gate[T any](n *Node, id string, write bool, op func() (T, error)) (T, error) {
	var zero T
	if e := n.movedErr(id); e != nil {
		return zero, e
	}
	if role, owner, stale := n.mgr.RoleOf(id); role == api.RoleFollower {
		if write {
			return zero, api.ErrNotOwner(id, owner)
		}
		if stale {
			return zero, api.ErrReplicaLagging(id, owner)
		}
	}
	v, err := op()
	return v, n.orMoved(id, err)
}

// orMoved closes the gate's check-then-act window. An operation that
// passed its gate and then lost a race with a handoff or demotion finds
// the interface gone (not_found, which routers read as "drop the
// placement") — but the tombstone is always written before the copy is
// dropped, so by then it says where the interface went.
func (n *Node) orMoved(id string, err error) error {
	if err == nil {
		return nil // before ae is declared: it escapes, and this is the query hot path
	}
	var ae *api.Error
	if errors.As(err, &ae) && ae.Code == api.CodeNotFound {
		if e := n.movedErr(id); e != nil {
			return e
		}
	}
	return err
}

func (n *Node) GetInterface(id string) (*api.InterfaceDetail, error) {
	return gate(n, id, false, func() (*api.InterfaceDetail, error) { return n.Service.GetInterface(id) })
}

func (n *Node) Epoch(id string) (*api.EpochResponse, error) {
	return gate(n, id, false, func() (*api.EpochResponse, error) { return n.Service.Epoch(id) })
}

func (n *Node) Page(id string) (string, error) {
	return gate(n, id, false, func() (string, error) { return n.Service.Page(id) })
}

func (n *Node) Query(id string, req api.QueryRequest) (*api.QueryResponse, error) {
	return gate(n, id, false, func() (*api.QueryResponse, error) { return n.Service.Query(id, req) })
}

// QueryIntoCtx keeps the zero-alloc, context-carrying serving path
// behind the shard's gate: without this override the embedded
// Service's method would be promoted, and the transport would bypass
// the tombstone check that turns queries for moved interfaces into
// structured `moved` errors.
func (n *Node) QueryIntoCtx(ctx context.Context, id string, req api.QueryRequest, resp *api.QueryResponse) error {
	_, err := gate(n, id, false, func() (struct{}, error) {
		return struct{}{}, n.Service.QueryIntoCtx(ctx, id, req, resp)
	})
	return err
}

func (n *Node) IngestReady(id string) error {
	_, err := gate(n, id, true, func() (struct{}, error) { return struct{}{}, n.Service.IngestReady(id) })
	return err
}

func (n *Node) IngestLog(id string, entries []qlog.Entry, flush bool) (*api.IngestAck, error) {
	return gate(n, id, true, func() (*api.IngestAck, error) { return n.Service.IngestLog(id, entries, flush) })
}

func (n *Node) AppendRows(id string, req api.RowsRequest, flush bool) (*api.RowsAck, error) {
	return gate(n, id, true, func() (*api.RowsAck, error) { return n.Service.AppendRows(id, req, flush) })
}

func (n *Node) MutateRows(id string, req api.MutateRequest) (*api.MutateAck, error) {
	return gate(n, id, true, func() (*api.MutateAck, error) { return n.Service.MutateRows(id, req) })
}

func (n *Node) DeleteInterface(id string) (*api.DeleteAck, error) {
	ack, err := gate(n, id, true, func() (*api.DeleteAck, error) { return n.Service.DeleteInterface(id) })
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
