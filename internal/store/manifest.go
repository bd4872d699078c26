package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest anchors an interface's durable state: the base snapshot and
// the position (seq, epochs) it covers — the floor above which the
// interface's write-ahead log records still apply. Replication control
// state (role, term, owner, follower positions) rides along so a
// restarted shard answers ownership questions from the term it actually
// held, not a blank slate.
//
// The manifest is tiny JSON written atomically (AtomicWrite) after the
// base it names, so a crash between the two leaves the new base with
// the old manifest; restore then starts from the base's own position.
type Manifest struct {
	FormatVersion int    `json:"formatVersion"`
	ID            string `json:"id"`
	// Base is the base snapshot's file name inside the data dir.
	Base string `json:"base"`
	// Deltas are the legacy delta files chained onto the base, in apply
	// order. Only format 1 dirs have them; no save adds one, and the
	// first save after a restore folds them into a new base.
	Deltas []string `json:"deltas,omitempty"`
	// Seq/Epoch/DataEpoch are the position the base (plus any legacy
	// deltas) reconstructs to; log records with seq > Seq complete the
	// acked state.
	Seq       uint64 `json:"seq"`
	Epoch     uint64 `json:"epoch"`
	DataEpoch uint64 `json:"dataEpoch"`
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

// ManifestFormatVersion is the manifest format this build writes.
// Format 1 (base + delta chain) is still read; builds that only know
// format 1 refuse a format 2 manifest instead of misreading it.
const ManifestFormatVersion = 2

const manifestSuffix = ".manifest.json"

// ManifestFile returns the manifest path for an interface inside dir.
func ManifestFile(dir, id string) string { return filepath.Join(dir, id+manifestSuffix) }

// SaveManifest writes the manifest durably in the current format.
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
	return decodeManifest(id, raw)
}

// decodeManifest parses one manifest file's bytes, accepting the current
// format and the legacy delta-chain format.
func decodeManifest(id string, raw []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest %q: %w", id, err)
	}
	if m.FormatVersion != 1 && m.FormatVersion != ManifestFormatVersion {
		return nil, fmt.Errorf("store: manifest %q has format %d, this build reads 1 and %d",
			id, m.FormatVersion, ManifestFormatVersion)
	}
	return &m, nil
}

// RemoveManifest deletes the manifest and every legacy delta it
// references; files that never existed are fine. The base snapshot is
// the caller's business (RemoveSnapshot already owns it).
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

// RestoreChain loads the base and folds in every legacy delta the
// manifest lists, returning the state the log replays onto. Deltas the
// base already covers are skipped, and a base past the manifest's seq
// is fine: both are a crash between a checkpoint's base write and its
// manifest write. A base short of it means a file was lost.
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
		if d.ToSeq <= snap.Seq {
			continue
		}
		if err := d.Apply(snap); err != nil {
			return nil, err
		}
	}
	if snap.Seq < m.Seq || (snap.Seq == m.Seq && snap.Epoch != m.Epoch) {
		return nil, fmt.Errorf("store: restore chain %q: base+deltas reach seq %d epoch %d, manifest says seq %d epoch %d",
			m.ID, snap.Seq, snap.Epoch, m.Seq, m.Epoch)
	}
	return snap, nil
}

// NewManifest describes a freshly written (or freshly found) base
// snapshot: the log applies from the snapshot's own position.
func NewManifest(snap *Snapshot, rs *ReplState) *Manifest {
	return &Manifest{
		ID:          snap.ID,
		Base:        snap.ID + ".snap",
		Seq:         snap.Seq,
		Epoch:       snap.Epoch,
		DataEpoch:   snap.DataEpoch,
		Replication: rs,
	}
}
