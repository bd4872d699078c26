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
	// Seq/Epoch/DataEpoch are the position the base reconstructs to;
	// log records with seq > Seq complete the acked state.
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

// ManifestFormatVersion is the one manifest format this build reads
// and writes. A data dir in an older format fails restore with
// upgradeHint; `pi upgrade` converts it.
const ManifestFormatVersion = 2

// upgradeHint ends every error that refuses an on-disk format this
// build does not read.
const upgradeHint = "convert the data dir with `pi upgrade DIR` first"

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
// (nil, nil). The data dir then holds at most a bare .snap for it: a
// crash between the interface's first checkpoint's base write and its
// manifest write leaves exactly that, and the restore path promotes it
// (NewManifest).
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

// decodeManifest parses one manifest file's bytes in the current format.
func decodeManifest(id string, raw []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest %q: %w", id, err)
	}
	if m.FormatVersion != ManifestFormatVersion {
		return nil, fmt.Errorf("store: manifest %q has format %d, this build reads %d; %s",
			id, m.FormatVersion, ManifestFormatVersion, upgradeHint)
	}
	return &m, nil
}

// LoadBase loads the base snapshot the manifest names: the state the
// log replays onto. A base past the manifest's position is fine: a
// crash between a checkpoint's base write and its manifest write leaves
// exactly that. A base short of it means a file was lost.
func LoadBase(dir string, m *Manifest) (*Snapshot, error) {
	snap, err := Load(filepath.Join(dir, m.Base))
	if err != nil {
		return nil, fmt.Errorf("store: load base of %q: %w", m.ID, err)
	}
	if snap.Seq < m.Seq || (snap.Seq == m.Seq && snap.Epoch != m.Epoch) {
		return nil, fmt.Errorf("store: base of %q is at seq %d epoch %d, manifest says seq %d epoch %d",
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
