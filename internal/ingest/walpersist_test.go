package ingest

import (
	"os"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
	"repro/internal/wal"
)

// newWALPersister hosts the fixture interface with a persister
// journaling every ack into a caller-visible WAL manager under dir.
func newWALPersister(t *testing.T, dir string, opts PersistOptions) (*api.Registry, *Ingester, *Persister, *wal.Manager) {
	t.Helper()
	reg := api.NewRegistry()
	ing := New(reg, Options{})
	if _, err := ing.Host("live", "wal test", fixtureLog(4), fixtureDB(t), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	m := wal.NewManager(dir, wal.Options{})
	t.Cleanup(func() { m.Close() })
	opts.WAL = m
	p := NewPersister(dir, ing, opts)
	return reg, ing, p, m
}

// TestWALKillRestoreRoundTrip is the tentpole contract end to end,
// minus the real SIGKILL (cmd/pi-serve's crash test covers the
// process): base snapshot, then acked writes that are NEVER saved —
// only journaled — then a cold restore that must replay them exactly.
func TestWALKillRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// --- first life.
	_, ing1, p1, _ := newWALPersister(t, dir, PersistOptions{})
	if _, err := p1.SaveAll(); err != nil {
		t.Fatal(err)
	}
	// Everything from here on lives only in the WAL.
	if _, err := ing1.Submit("live", []qlog.Entry{
		entry("SELECT a FROM t WHERE x = 30"),
		entry("SELECT a FROM t WHERE x = 31"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.SubmitRows("live", "t", [][]engine.Value{numRow(777, 30), numRow(778, 31)}); err != nil {
		t.Fatal(err)
	}
	wantSeq, err := ing1.Seq("live")
	if err != nil {
		t.Fatal(err)
	}
	if wantSeq == 0 {
		t.Fatal("no publications were acked")
	}
	wantMined, _ := minedLen(ing1, "live")
	st1, _ := ing1.Store("live")
	wantRows, _ := st1.RowCount("t")
	if wantRows != 52 {
		t.Fatalf("first-life rows = %d, want 52", wantRows)
	}

	// --- second life: the snapshot predates every submit; the WAL tail
	// must close the gap.
	reg2 := api.NewRegistry()
	ing2 := New(reg2, Options{})
	m2 := wal.NewManager(dir, wal.Options{})
	defer m2.Close()
	p2 := NewPersister(dir, ing2, PersistOptions{WAL: m2})
	restored, err := p2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Interfaces) != 1 || restored.Interfaces[0].ID != "live" {
		t.Fatalf("restore result = %+v", restored)
	}
	if r := restored.Interfaces[0]; r.Rows != wantRows || r.LogEntries != wantMined {
		t.Fatalf("restore reports %d rows, %d log entries; replayed %d, %d", r.Rows, r.LogEntries, wantRows, wantMined)
	}
	if got, _ := ing2.Seq("live"); got != wantSeq {
		t.Fatalf("restored seq = %d, want %d", got, wantSeq)
	}
	if got, _ := minedLen(ing2, "live"); got != wantMined {
		t.Fatalf("restored mined log = %d entries, want %d", got, wantMined)
	}
	st2, err := ing2.Store("live")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st2.RowCount("t"); n != wantRows {
		t.Fatalf("restored rows = %d, want %d", n, wantRows)
	}

	// Restored process keeps journaling: another acked write, another
	// cold restore, still exact.
	if _, err := ing2.SubmitRows("live", "t", [][]engine.Value{numRow(900, 40)}); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	reg3 := api.NewRegistry()
	ing3 := New(reg3, Options{})
	m3 := wal.NewManager(dir, wal.Options{})
	defer m3.Close()
	if _, err := NewPersister(dir, ing3, PersistOptions{WAL: m3}).Restore(); err != nil {
		t.Fatal(err)
	}
	st3, _ := ing3.Store("live")
	if n, _ := st3.RowCount("t"); n != wantRows+1 {
		t.Fatalf("third-life rows = %d, want %d", n, wantRows+1)
	}
}

// TestWALAdoptRestoresReplicationState: Adopt persists an external
// snapshot plus the replication role synchronously; a cold boot hands
// the recorded term and follower positions back to the shard node.
func TestWALAdoptRestoresReplicationState(t *testing.T) {
	dir := t.TempDir()
	_, ing, p, m := newWALPersister(t, dir, PersistOptions{})
	snap, err := ing.Capture("live")
	if err != nil {
		t.Fatal(err)
	}
	rs := &store.ReplState{
		Role: api.RoleOwner, Term: 7, Owner: "http://127.0.0.1:9000",
		Followers: map[string]uint64{"http://127.0.0.1:9001": snap.Seq},
	}
	if err := p.Adopt(snap, rs); err != nil {
		t.Fatal(err)
	}
	if st, ok := m.Status("live"); !ok || st.LastSeq != snap.Seq {
		t.Fatalf("adopt did not reset the WAL to seq %d: %+v", snap.Seq, st)
	}

	reg2 := api.NewRegistry()
	ing2 := New(reg2, Options{})
	m2 := wal.NewManager(dir, wal.Options{})
	defer m2.Close()
	p2 := NewPersister(dir, ing2, PersistOptions{WAL: m2})
	if _, err := p2.Restore(); err != nil {
		t.Fatal(err)
	}
	states := p2.ReplStates()
	got := states["live"]
	if got == nil || got.Term != 7 || got.Role != api.RoleOwner || got.Owner != rs.Owner {
		t.Fatalf("restored replication state = %+v", got)
	}
	if got.Followers["http://127.0.0.1:9001"] != snap.Seq {
		t.Fatalf("restored follower position = %+v", got.Followers)
	}
}

// TestWALPersistReplState: a control-plane change rewrites the
// manifest in place without a data save.
func TestWALPersistReplState(t *testing.T) {
	dir := t.TempDir()
	_, _, p, _ := newWALPersister(t, dir, PersistOptions{})
	term := uint64(1)
	p.SetReplStateSource(func(id string) *store.ReplState {
		return &store.ReplState{Role: api.RoleOwner, Term: term, Owner: "http://127.0.0.1:9000"}
	})
	if _, err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	term = 9
	if err := p.PersistReplState("live"); err != nil {
		t.Fatal(err)
	}
	man, err := store.LoadManifest(dir, "live")
	if err != nil {
		t.Fatal(err)
	}
	if man.Replication == nil || man.Replication.Term != 9 {
		t.Fatalf("manifest replication state = %+v", man.Replication)
	}
	// Unknown interface and unchanged state are silent no-ops.
	if err := p.PersistReplState("ghost"); err != nil {
		t.Fatal(err)
	}
	if err := p.PersistReplState("live"); err != nil {
		t.Fatal(err)
	}
}

// TestWALCatchUp: the logged tail replays to a restarted follower as
// publications; a range the log no longer covers refuses instead of
// shipping a gapped stream.
func TestWALCatchUp(t *testing.T) {
	dir := t.TempDir()
	_, ing, p, _ := newWALPersister(t, dir, PersistOptions{})
	if _, err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	base, _ := ing.Seq("live")
	if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(811, 62), numRow(812, 63)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Submit("live", []qlog.Entry{
		entry("SELECT a FROM t WHERE x = 33"),
		entry("SELECT a FROM t WHERE x = 34"),
	}); err != nil {
		t.Fatal(err)
	}
	head, _ := ing.Seq("live")
	if head <= base {
		t.Fatalf("no publications after base (%d -> %d)", base, head)
	}

	pubs, ok := p.CatchUp("live", base)
	if !ok || len(pubs) != int(head-base) {
		t.Fatalf("CatchUp(%d) = %d pubs, ok=%v, want %d", base, len(pubs), ok, head-base)
	}
	for i, pub := range pubs {
		if pub.Seq != base+uint64(i)+1 {
			t.Fatalf("pub %d has seq %d, want %d", i, pub.Seq, base+uint64(i)+1)
		}
	}

	// Save → truncate; a follower parked before the truncation point
	// must be told to take a full seed.
	if _, err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if base > 0 {
		if _, ok := p.CatchUp("live", base-1); ok {
			t.Fatal("CatchUp offered a range the truncated log cannot cover")
		}
	}
	// At head there is nothing to ship — empty but ok.
	if pubs, ok := p.CatchUp("live", head); !ok || len(pubs) != 0 {
		t.Fatalf("CatchUp at head = %d pubs, ok=%v", len(pubs), ok)
	}
}

// TestWALStatusLag: health rows report how far the log runs ahead of
// the newest save.
func TestWALStatusLag(t *testing.T) {
	dir := t.TempDir()
	_, ing, p, _ := newWALPersister(t, dir, PersistOptions{})
	if _, err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	info, ok := p.WALStatus("live")
	if !ok || info.Lag != 0 {
		t.Fatalf("post-save WAL status = %+v, ok=%v", info, ok)
	}
	if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(821, 64), numRow(822, 65)}); err != nil {
		t.Fatal(err)
	}
	info, ok = p.WALStatus("live")
	if !ok || info.Lag == 0 {
		t.Fatalf("WAL status after unsaved acks = %+v, ok=%v", info, ok)
	}
	if info.SyncedSeq != info.LastSeq {
		t.Fatalf("strict sync mode left unsynced acks: %+v", info)
	}
}

// TestWALOrphanLogFailsRestore: a log directory with no base snapshot
// holds acked writes that cannot be reconstructed — restore must fail
// loudly rather than serve as if they never happened.
func TestWALOrphanLogFailsRestore(t *testing.T) {
	dir := t.TempDir()
	m := wal.NewManager(dir, wal.Options{})
	if err := m.Append("ghost", wal.Record{Seq: 1, Epoch: 1, Entries: []qlog.Entry{entry("SELECT a FROM t")}}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	reg := api.NewRegistry()
	ing := New(reg, Options{})
	m2 := wal.NewManager(dir, wal.Options{})
	defer m2.Close()
	if _, err := NewPersister(dir, ing, PersistOptions{WAL: m2}).Restore(); err == nil {
		t.Fatal("restore over an orphaned WAL succeeded")
	}
}

// TestWALCrashBeforeFirstManifestPromotesBase: a crash between an
// interface's first checkpoint's base write and its manifest write
// leaves a bare .snap. It still restores, gains a manifest, and anchors
// the replayed tail.
func TestWALCrashBeforeFirstManifestPromotesBase(t *testing.T) {
	dir := t.TempDir()
	reg1 := api.NewRegistry()
	ing1 := New(reg1, Options{})
	if _, err := ing1.Host("live", "bare", fixtureLog(4), fixtureDB(t), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	p1 := NewPersister(dir, ing1, PersistOptions{})
	if _, err := p1.SaveAll(); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	if err := os.Remove(store.ManifestFile(dir, "live")); err != nil {
		t.Fatal(err)
	}

	reg2 := api.NewRegistry()
	ing2 := New(reg2, Options{})
	m := wal.NewManager(dir, wal.Options{})
	defer m.Close()
	p := NewPersister(dir, ing2, PersistOptions{WAL: m})
	if _, err := p.Restore(); err != nil {
		t.Fatal(err)
	}
	man, err := store.LoadManifest(dir, "live")
	if err != nil {
		t.Fatal(err)
	}
	if man == nil {
		t.Fatal("bare snapshot was not promoted to a manifest")
	}
	// And the promoted interface journals from here on.
	if _, err := ing2.SubmitRows("live", "t", [][]engine.Value{numRow(950, 45)}); err != nil {
		t.Fatal(err)
	}
	if st, ok := m.Status("live"); !ok || st.LastSeq == 0 {
		t.Fatalf("promoted interface not journaling: %+v", st)
	}
}

// TestWALRemoveSnapshotDropsLog: unhosting removes the base, the
// manifest and the log directory, so the interface cannot
// resurrect — and cannot trip the orphan check.
func TestWALRemoveSnapshotDropsLog(t *testing.T) {
	dir := t.TempDir()
	_, ing, p, _ := newWALPersister(t, dir, PersistOptions{})
	if _, err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.SubmitRows("live", "t", [][]engine.Value{numRow(840, 66)}); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveSnapshot("live"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("durable state survived removal: %s", e.Name())
	}
}
