package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/replica"
	"repro/internal/store"
)

// This file binds a Node to its replication manager (internal/replica)
// and owns the durable tombstone file. The manager gets three
// callbacks into the node — demote (fence lost-term owners), drop
// (tear down follower copies) and clear-tombstone (a base supersedes
// an old relocation) — and the node installs the manager's publish
// hook on its ingester, so every acked write streams to followers
// before the ack leaves the process.

// Replication returns the node's replication manager.
func (n *Node) Replication() *replica.Manager { return n.mgr }

// demoteLocal is the manager's Demote callback: this shard lost an
// ownership term race (a fenced ex-owner, or a router-observed
// conflict). Tombstone FIRST — the teardown window answers moved,
// never not_found — then drop the copy and its durable snapshot, then
// forget the replication state.
func (n *Node) demoteLocal(id, to string) {
	if addr, err := NormalizeAddr(to); err == nil {
		to = addr
	}
	n.setTombstone(id, to)
	_, _ = n.Service.DeleteInterface(id)
	n.mgr.Forget(id)
}

// dropLocal is the manager's Drop callback: remove a local copy (and
// any durable snapshot) with no tombstone. Missing copies are fine.
func (n *Node) dropLocal(id string) {
	_, _ = n.Service.DeleteInterface(id)
}

// --- durable tombstones.
//
// A tombstone is only useful if it outlives the process: a restarted
// shard that forgot its relocations answers not_found where it should
// answer moved, and routers treat not_found as "drop the placement" —
// the carried-over bug this file fixes. With a persister wired, every
// tombstone mutation rewrites <data-dir>/tombstones.json atomically
// (temp + rename, like .snap files) and NewNode reloads it on boot.

// tombstoneFile names the durable tombstone map inside a data dir.
const tombstoneFile = "tombstones.json"

// setTombstone records id -> addr and persists the map.
func (n *Node) setTombstone(id, addr string) {
	n.mu.Lock()
	n.moved[id] = addr
	n.mu.Unlock()
	n.persistTombstones()
}

// clearTombstone removes id's tombstone (the interface came back —
// accept or seed) and persists the map.
func (n *Node) clearTombstone(id string) {
	n.mu.Lock()
	_, had := n.moved[id]
	delete(n.moved, id)
	n.mu.Unlock()
	if had {
		n.persistTombstones()
	}
}

// persistTombstones writes the current tombstone map durably.
// Best-effort: the in-memory map stays authoritative for this
// process's lifetime, and a write failure only costs moved answers
// after a restart — the same exposure as before persistence existed.
func (n *Node) persistTombstones() {
	p := n.opts.Persister
	if p == nil {
		return
	}
	n.mu.RLock()
	snapshot := make(map[string]string, len(n.moved))
	for id, addr := range n.moved {
		snapshot[id] = addr
	}
	n.mu.RUnlock()

	n.tombMu.Lock()
	defer n.tombMu.Unlock()
	if err := writeTombstones(p.Dir(), snapshot); err != nil {
		n.mu.Lock()
		n.tombErr = err.Error()
		n.mu.Unlock()
	}
}

func writeTombstones(dir string, moved map[string]string) error {
	raw, err := json.MarshalIndent(moved, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encode tombstones: %w", err)
	}
	if err := store.AtomicWrite(dir, tombstoneFile, raw); err != nil {
		return fmt.Errorf("shard: persist tombstones: %w", err)
	}
	return nil
}

// loadTombstones reads the durable tombstone map on boot. A missing
// file is a fresh shard; a corrupt one is reported but not fatal (the
// shard can serve — it just answers not_found where it could have
// answered moved, which the next relocation rewrite repairs).
func loadTombstones(dir string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, tombstoneFile))
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return map[string]string{}, fmt.Errorf("shard: read tombstones: %w", err)
	}
	moved := map[string]string{}
	if err := json.Unmarshal(raw, &moved); err != nil {
		return map[string]string{}, fmt.Errorf("shard: decode tombstones: %w", err)
	}
	return moved, nil
}
