package ingest

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/store"
	"repro/internal/wal"
)

// This file is the durable half of ingestion. One on-disk layout per
// interface:
//
//	<id>.snap            base snapshot (full capture at some seq)
//	<id>.manifest.json   the base's position plus the replication
//	                     control state
//	<id>.wal/            the write-ahead log: every acked publication
//	                     since (at least) the base
//
// The contract:
//
//   - Every acked publish (log batch, row append, mutation, epoch bump)
//     is in the log before the ack returns — the persister is the
//     ingester's Journal, and the journal fires under the feed lock on
//     owners and followers alike. The log is the record of what
//     changed since the base.
//   - A save is a checkpoint. It writes a new base and truncates the
//     log only once the log outgrows a fixed fraction of the base
//     (checkpointFraction); otherwise it writes nothing but a changed
//     replication state.
//   - Restore = base + log replayed through the same Apply followers
//     use. The acked state comes back exactly; a torn final record
//     (crash mid-append) was never acked and is truncated, not applied.
//     A bare .snap with no manifest (a crash between an interface's
//     first checkpoint's base and its manifest) is promoted on boot. A
//     data dir in an older on-disk format fails restore; `pi upgrade`
//     converts it offline.
//   - Replication control state (role, term, owner, follower
//     positions) rides in the manifest, so a restarted shard answers
//     ownership questions from the term it actually held.

// checkpointFraction sets when a save writes a new base: once the log
// bytes retained past the current base exceed 1/checkpointFraction of
// the base's size. Below that, replaying the log at restore costs less
// than rewriting the base at every save.
const checkpointFraction = 4

// PersistOptions configure a Persister.
type PersistOptions struct {
	// Funcs, when set, is called for every restored interface so the
	// caller can re-attach table-valued functions — code that a
	// snapshot file cannot carry (pi-serve re-binds the synthetic SDSS
	// UDF to the restored Galaxy table here).
	Funcs func(id string, st *store.Store)
	// WAL is the write-ahead log the persister journals into. When nil,
	// NewPersister opens one under the data dir with default options.
	WAL *wal.Manager
}

// Persister is the durable snapshot/restore coordinator over an
// ingester's feeds: it journals every acked publish into the
// write-ahead log, SaveAll checkpoints every live-hosted interface's
// (log, dataset, epoch) into the data dir through internal/store's
// checksummed atomic writer, and Restore re-hosts whatever the dir
// holds — the saved log re-mines to exactly the interface that was
// serving, the dataset rows load instead of being regenerated, the
// logged tail replays, and the interface resumes at its acked epoch,
// so a SIGKILLed server comes back without the original log or
// workload generator. Implements api.Persister.
type Persister struct {
	dir  string
	ing  *Ingester
	opts PersistOptions

	// saveMu serializes every durable-state mutation: SaveAll (the
	// periodic ticker, the HTTP snapshot endpoint and the shutdown
	// snapshot can all fire concurrently), the manifest map, Adopt and
	// replication-state persists.
	saveMu sync.Mutex

	// manifests mirrors the on-disk manifest per interface. Guarded by
	// saveMu.
	manifests map[string]*store.Manifest

	// replState, when set, reports an interface's live replication
	// control state at save time so it persists in the manifest.
	// Guarded by saveMu.
	replState func(id string) *store.ReplState
}

// NewPersister returns a persister writing under dir and installs it
// as the ingester's durability journal: every acked publish is logged
// before the ack returns.
func NewPersister(dir string, ing *Ingester, opts PersistOptions) *Persister {
	if opts.WAL == nil {
		opts.WAL = wal.NewManager(dir, wal.Options{})
	}
	p := &Persister{dir: dir, ing: ing, opts: opts, manifests: map[string]*store.Manifest{}}
	ing.SetJournal(p)
	return p
}

// Dir returns the data directory.
func (p *Persister) Dir() string { return p.dir }

// Close syncs and closes the write-ahead log.
func (p *Persister) Close() error { return p.opts.WAL.Close() }

// Append implements Journal: one acked publication into the WAL,
// synchronously, before the ack returns. Sequence numbers the log
// already holds are no-ops, which is what makes restore-time replay
// (driving the same Apply that journals live traffic) safe.
func (p *Persister) Append(id string, pub Publication) error {
	if err := p.opts.WAL.Append(id, pub); err != nil {
		return api.Errf(api.CodeWALFailed, http.StatusInternalServerError,
			"wal append %q seq %d: %v", id, pub.Seq, err)
	}
	return nil
}

// SetReplStateSource wires the replication manager's live state into
// saves, so manifests carry current roles, terms and follower
// positions.
func (p *Persister) SetReplStateSource(fn func(id string) *store.ReplState) {
	p.saveMu.Lock()
	p.replState = fn
	p.saveMu.Unlock()
}

// ReplStates returns the replication control state the manifests held
// at restore, keyed by interface — the shard node feeds these back
// into its replication manager at boot.
func (p *Persister) ReplStates() map[string]*store.ReplState {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	out := map[string]*store.ReplState{}
	for id, m := range p.manifests {
		if m.Replication != nil {
			out[id] = m.Replication
		}
	}
	return out
}

// WALStatus implements api.Persister for /healthz rows.
func (p *Persister) WALStatus(id string) (*api.WALInfo, bool) {
	st, ok := p.opts.WAL.Status(id)
	if !ok {
		return nil, false
	}
	info := &api.WALInfo{
		Segments:  st.Segments,
		Bytes:     st.Bytes,
		LastSeq:   st.LastSeq,
		SyncedSeq: st.SyncedSeq,
		Truncated: st.Truncated,
	}
	p.saveMu.Lock()
	if m := p.manifests[id]; m != nil && st.LastSeq > m.Seq {
		info.Lag = st.LastSeq - m.Seq
	} else if m == nil {
		info.Lag = st.LastSeq
	}
	p.saveMu.Unlock()
	return info, true
}

// SaveAll persists every live feed; every acked write is in the
// capture, since acks follow their publish. Implements api.Persister.
func (p *Persister) SaveAll() (*api.SnapshotResult, error) {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	start := time.Now()

	p.ing.mu.RLock()
	ids := make([]string, 0, len(p.ing.feeds))
	for id := range p.ing.feeds {
		ids = append(ids, id)
	}
	p.ing.mu.RUnlock()
	sort.Strings(ids)

	res := &api.SnapshotResult{Dir: p.dir, Interfaces: []api.SnapshotInterface{}}
	for _, id := range ids {
		// Capture shares only immutable data — a log copy and published
		// table versions — so the disk write that follows never blocks
		// ingestion or serving.
		snap, err := p.ing.Capture(id)
		if err != nil {
			return nil, err
		}
		row, err := p.saveLocked(snap)
		if err != nil {
			return nil, fmt.Errorf("ingest: save %q: %w", id, err)
		}
		res.Interfaces = append(res.Interfaces, row)
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// saveLocked checkpoints one capture: a new base when the manifest
// asks for one (none yet, a capture behind the base) or the log has
// outgrown checkpointFraction of the base;
// otherwise only a changed replication state is written, and the log
// keeps carrying everything past the base. Caller holds saveMu.
func (p *Persister) saveLocked(snap *store.Snapshot) (api.SnapshotInterface, error) {
	m := p.manifests[snap.ID]
	var rs *store.ReplState
	if p.replState != nil {
		rs = p.replState(snap.ID)
	}
	if p.needsBaseLocked(snap, m) {
		return p.writeBaseLocked(snap, rs)
	}
	if rs != nil && !replStateEqual(rs, m.Replication) {
		m.Replication = rs
		if err := store.SaveManifest(p.dir, m); err != nil {
			return api.SnapshotInterface{}, err
		}
	}
	return snapshotRow(snap, 0), nil
}

// needsBaseLocked decides whether a save of snap writes a new base.
// Caller holds saveMu.
func (p *Persister) needsBaseLocked(snap *store.Snapshot, m *store.Manifest) bool {
	if m == nil || snap.Seq < m.Seq {
		return true
	}
	st, _ := p.opts.WAL.Status(snap.ID)
	base, err := os.Stat(filepath.Join(p.dir, m.Base))
	return err != nil || st.Bytes*checkpointFraction > base.Size()
}

// writeBaseLocked writes a full base snapshot and a fresh manifest,
// then drops the log segments at or below the base's seq. The manifest
// lands after the base, so a crash between the two restores from the
// new base (see store.LoadBase). Caller holds saveMu.
func (p *Persister) writeBaseLocked(snap *store.Snapshot, rs *store.ReplState) (api.SnapshotInterface, error) {
	bytes, err := store.Save(p.dir, snap)
	if err != nil {
		return api.SnapshotInterface{}, err
	}
	if old := p.manifests[snap.ID]; rs == nil && old != nil {
		rs = old.Replication
	}
	m := store.NewManifest(snap, rs)
	if err := store.SaveManifest(p.dir, m); err != nil {
		return api.SnapshotInterface{}, err
	}
	p.manifests[snap.ID] = m
	// Best-effort: a segment left behind only costs disk and replay time.
	_ = p.opts.WAL.Truncate(snap.ID, snap.Seq)
	return snapshotRow(snap, bytes), nil
}

func replStateEqual(a, b *store.ReplState) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Role != b.Role || a.Term != b.Term || a.Owner != b.Owner || len(a.Followers) != len(b.Followers) {
		return false
	}
	for addr, seq := range a.Followers {
		if b.Followers[addr] != seq {
			return false
		}
	}
	return true
}

// Adopt durably installs an externally-sourced snapshot — a
// replication seed — as this node's truth for the
// interface: full base + manifest written synchronously (the caller
// has not acked the transfer yet) and the WAL reset to the snapshot's sequence, because the old log tail
// described state the snapshot wholesale replaced.
func (p *Persister) Adopt(snap *store.Snapshot, rs *store.ReplState) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	if _, err := p.writeBaseLocked(snap, rs); err != nil {
		return fmt.Errorf("ingest: adopt %q: %w", snap.ID, err)
	}
	if err := p.opts.WAL.Reset(snap.ID, snap.Seq); err != nil {
		return fmt.Errorf("ingest: adopt %q: %w", snap.ID, err)
	}
	return nil
}

// PersistReplState rewrites one interface's manifest with its current
// replication control state — the replication manager calls this on
// control-plane changes (promote, demote, fence, term adoption), so a
// crash right after a failover remembers who won. An interface with
// no manifest yet (nothing saved) is skipped: the first save captures
// the state. Errors are returned for the caller to surface but leave
// the in-memory state authoritative.
func (p *Persister) PersistReplState(id string) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	m := p.manifests[id]
	if m == nil || p.replState == nil {
		return nil
	}
	rs := p.replState(id)
	if replStateEqual(rs, m.Replication) {
		return nil
	}
	m.Replication = rs
	if err := store.SaveManifest(p.dir, m); err != nil {
		return fmt.Errorf("ingest: persist replication state of %q: %w", id, err)
	}
	return nil
}

// CatchUp returns the logged publications with sequence in (fromSeq,
// head] — what a follower at fromSeq lacks. ok=false means the log does
// not cover the range (truncated past it, too long to ship record by
// record, or unreadable) and only a base helps.
func (p *Persister) CatchUp(id string, fromSeq uint64) ([]Publication, bool) {
	const maxCatchUp = 4096
	var pubs []Publication
	err := p.opts.WAL.Replay(id, fromSeq, func(pub Publication) error {
		if len(pubs) >= maxCatchUp {
			return fmt.Errorf("wal: catch-up range exceeds %d records", maxCatchUp)
		}
		pubs = append(pubs, pub)
		return nil
	})
	if err != nil {
		return nil, false
	}
	// The chain must start exactly one past the follower's position (a
	// gap means truncation outran the follower), and a log with nothing
	// past it covers the range only when the feed has nothing past it
	// either.
	if len(pubs) > 0 {
		return pubs, pubs[0].Seq == fromSeq+1
	}
	seq, err := p.ing.Seq(id)
	return nil, err == nil && seq == fromSeq
}

// RemoveSnapshot deletes the interface's durable state — base
// snapshot, manifest and log directory — so an unhosted
// interface does not resurrect on the next boot; files that never
// existed are fine. Implements api.Persister.
func (p *Persister) RemoveSnapshot(id string) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	for _, path := range []string{store.SnapFile(p.dir, id), store.ManifestFile(p.dir, id)} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ingest: remove snapshot %q: %w", id, err)
		}
	}
	delete(p.manifests, id)
	if err := p.opts.WAL.Remove(id); err != nil {
		return fmt.Errorf("ingest: remove snapshot %q: %w", id, err)
	}
	return nil
}

// Restore re-hosts every interface the data dir holds onto the
// ingester's registry. Returns what came back; a missing or empty dir
// restores nothing (first boot). A snapshot or log record that fails
// its checksum or decode, or a file in an older on-disk format, is an
// error — serving silently without an interface the operator expects
// is worse than failing loudly.
// Runs once at boot, before the server serves. Implements
// api.Persister.
func (p *Persister) Restore() (*api.RestoreResult, error) {
	ids, orphans, err := p.scanDataDir()
	if err != nil {
		return nil, err
	}
	if len(orphans) > 0 {
		// A WAL directory with no base to replay onto holds acked writes
		// this process cannot reconstruct. Refuse to serve as if they
		// never happened.
		return nil, fmt.Errorf("ingest: restore: WAL logs %v have no snapshot or manifest to replay onto; "+
			"the interfaces were acked writes this data dir cannot reconstruct", orphans)
	}
	res := &api.RestoreResult{Dir: p.dir, Interfaces: []api.SnapshotInterface{}}
	for _, id := range ids {
		snap, err := p.restoreOne(id)
		if err != nil {
			return nil, err
		}
		res.Interfaces = append(res.Interfaces, snapshotRow(snap, 0))
	}
	return res, nil
}

// restoreOne rebuilds one interface to its exact acked state and
// returns a capture of it.
func (p *Persister) restoreOne(id string) (*store.Snapshot, error) {
	m, err := store.LoadManifest(p.dir, id)
	if err != nil {
		return nil, err
	}
	var snap *store.Snapshot
	if m != nil {
		snap, err = store.LoadBase(p.dir, m)
	} else if snap, err = store.Load(store.SnapFile(p.dir, id)); err == nil {
		// A bare .snap: a crash between the first checkpoint's base
		// write and its manifest write. Promote it to a manifest so the
		// log is anchored from here on.
		m = store.NewManifest(snap, nil)
		err = store.SaveManifest(p.dir, m)
	}
	if err != nil {
		return nil, err
	}
	if _, err := p.ing.HostSnapshot(snap, p.opts.Funcs, snap.Epoch); err != nil {
		return nil, fmt.Errorf("ingest: restore %q: %w", id, err)
	}
	p.saveMu.Lock()
	p.manifests[id] = m
	p.saveMu.Unlock()

	// Replay the acked tail: every logged publication past the base,
	// through the same Apply followers use (the registry bumps the epoch
	// by exactly one per swap, so the logged epochs verify lockstep).
	err = p.opts.WAL.Replay(id, snap.Seq, func(pub Publication) error { return p.ing.Apply(id, pub) })
	if err != nil {
		return nil, fmt.Errorf("ingest: restore %q: replay WAL tail: %w", id, err)
	}
	// Report the replayed feed, not the base.
	return p.ing.Capture(id)
}

// scanDataDir enumerates restorable interfaces (manifest or bare
// .snap) and orphaned WAL directories (log but no base).
func (p *Persister) scanDataDir() (ids []string, orphans []string, err error) {
	entries, err := os.ReadDir(p.dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: restore: %w", err)
	}
	have := map[string]bool{}
	walDirs := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasSuffix(name, ".wal"):
			walDirs[strings.TrimSuffix(name, ".wal")] = true
		case e.IsDir():
		case strings.HasSuffix(name, ".manifest.json"):
			have[strings.TrimSuffix(name, ".manifest.json")] = true
		case strings.HasSuffix(name, ".snap"):
			have[strings.TrimSuffix(name, ".snap")] = true
		}
	}
	for id := range have {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for id := range walDirs {
		if !have[id] {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans)
	return ids, orphans, nil
}

// snapshotRow summarizes a snapshot for results.
func snapshotRow(snap *store.Snapshot, bytes int64) api.SnapshotInterface {
	rows := 0
	for _, t := range snap.Tables {
		rows += len(t.Rows)
	}
	return api.SnapshotInterface{
		ID:         snap.ID,
		Epoch:      snap.Epoch,
		DataEpoch:  snap.DataEpoch,
		LogEntries: len(snap.Log),
		Rows:       rows,
		Bytes:      bytes,
	}
}
