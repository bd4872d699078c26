package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest links an interface's durable pieces together: the base
// snapshot, the ordered delta chain on top of it, and the position
// (seq, epochs, covered counts) everything through the last delta
// adds up to — the floor above which WAL records still apply.
// Replication control state (role, term, owner, follower positions)
// rides along so a restarted shard answers ownership questions from
// the term it actually held, not a blank slate.
//
// The manifest is tiny JSON written atomically (AtomicWrite), so the
// chain flips from "base+deltas(n)" to "base+deltas(n+1)" in one
// rename; a crash between the delta write and the manifest write
// leaves an orphaned delta file the next save overwrites or ignores.
type Manifest struct {
	FormatVersion int    `json:"formatVersion"`
	ID            string `json:"id"`
	// Base is the base snapshot's file name inside the data dir.
	Base string `json:"base"`
	// Deltas are the delta file names, in apply order.
	Deltas []string `json:"deltas,omitempty"`
	// Seq/Epoch/DataEpoch are the position base+deltas reconstruct to;
	// WAL records with seq > Seq complete the acked state.
	Seq       uint64 `json:"seq"`
	Epoch     uint64 `json:"epoch"`
	DataEpoch uint64 `json:"dataEpoch"`
	// LogLen and TableRows are the covered counts the next differential
	// save cuts its delta against; TableMuts are the covered mutation
	// generations — a table whose generation moved since the last save
	// rides the next delta as a full replacement, not a tail.
	LogLen    int               `json:"logLen"`
	TableRows map[string]int    `json:"tableRows,omitempty"`
	TableMuts map[string]uint64 `json:"tableMuts,omitempty"`
	// Replication, when present, is the interface's crash-proof
	// replication control state.
	Replication *ReplState `json:"replication,omitempty"`
}

// ReplState is the durable replication control state of one
// interface on one shard.
type ReplState struct {
	// Role is api.RoleOwner or api.RoleFollower (stored as its string).
	Role string `json:"role"`
	// Term is the fencing term the shard held.
	Term uint64 `json:"term"`
	// Owner is the owner's base URL, set on followers.
	Owner string `json:"owner,omitempty"`
	// Followers maps follower address -> last sequence number the owner
	// saw applied there. Refreshed at saves and control-plane changes,
	// so it may trail the live stream; a restarted owner treats every
	// follower as needing re-sync from this floor.
	Followers map[string]uint64 `json:"followers,omitempty"`
}

// ManifestFormatVersion is the current manifest format.
const ManifestFormatVersion = 1

const manifestSuffix = ".manifest.json"

// ManifestFile returns the manifest path for an interface inside dir.
func ManifestFile(dir, id string) string { return filepath.Join(dir, id+manifestSuffix) }

// SaveManifest writes the manifest durably.
func SaveManifest(dir string, m *Manifest) error {
	if !ValidID(m.ID) {
		return fmt.Errorf("store: invalid manifest id %q", m.ID)
	}
	m.FormatVersion = ManifestFormatVersion
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest %q: %w", m.ID, err)
	}
	if err := AtomicWrite(dir, m.ID+manifestSuffix, raw); err != nil {
		return fmt.Errorf("store: save manifest %q: %w", m.ID, err)
	}
	return nil
}

// LoadManifest reads one interface's manifest; a missing file returns
// (nil, nil) — the data dir holds at most a bare .snap for it, which
// the restore path promotes (NewManifest).
func LoadManifest(dir, id string) (*Manifest, error) {
	raw, err := os.ReadFile(ManifestFile(dir, id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest %q: %w", id, err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest %q: %w", id, err)
	}
	if m.FormatVersion != ManifestFormatVersion {
		return nil, fmt.Errorf("store: manifest %q has format %d, this build reads %d",
			id, m.FormatVersion, ManifestFormatVersion)
	}
	return &m, nil
}

// RemoveManifest deletes the manifest and every delta it references;
// files that never existed are fine. The base snapshot is the
// caller's business (RemoveSnapshot already owns it).
func RemoveManifest(dir, id string) error {
	m, err := LoadManifest(dir, id)
	if err != nil {
		return err
	}
	if m != nil {
		for _, name := range m.Deltas {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("store: remove delta of %q: %w", id, err)
			}
		}
	}
	if err := os.Remove(ManifestFile(dir, id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove manifest %q: %w", id, err)
	}
	return nil
}

// RestoreChain loads the base snapshot and folds every delta into it,
// returning the merged snapshot — the state base+deltas cover, on top
// of which the WAL tail replays.
func RestoreChain(dir string, m *Manifest) (*Snapshot, error) {
	snap, err := Load(filepath.Join(dir, m.Base))
	if err != nil {
		return nil, fmt.Errorf("store: restore chain %q: %w", m.ID, err)
	}
	for _, name := range m.Deltas {
		d, err := LoadDelta(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: restore chain %q: %w", m.ID, err)
		}
		if err := d.Apply(snap); err != nil {
			return nil, err
		}
	}
	if snap.Seq != m.Seq || snap.Epoch != m.Epoch {
		return nil, fmt.Errorf("store: restore chain %q: base+deltas reach seq %d epoch %d, manifest says seq %d epoch %d",
			m.ID, snap.Seq, snap.Epoch, m.Seq, m.Epoch)
	}
	return snap, nil
}

// NewManifest describes a freshly written (or freshly found) base
// snapshot with no deltas on top: the chain starts at the snapshot's
// own position and covered counts.
func NewManifest(snap *Snapshot, rs *ReplState) *Manifest {
	m := &Manifest{
		ID:          snap.ID,
		Base:        snap.ID + ".snap",
		Seq:         snap.Seq,
		Epoch:       snap.Epoch,
		DataEpoch:   snap.DataEpoch,
		Replication: rs,
	}
	m.LogLen, m.TableRows, m.TableMuts = CoveredCounts(snap)
	return m
}

// CoveredCounts summarizes a snapshot's covered positions for the
// manifest: log length, per-table row counts and per-table mutation
// generations.
func CoveredCounts(snap *Snapshot) (logLen int, tableRows map[string]int, tableMuts map[string]uint64) {
	tableRows = make(map[string]int, len(snap.Tables))
	tableMuts = make(map[string]uint64, len(snap.Tables))
	for _, t := range snap.Tables {
		tableRows[t.Name] = len(t.Rows)
		tableMuts[t.Name] = t.MutGen
	}
	return len(snap.Log), tableRows, tableMuts
}
