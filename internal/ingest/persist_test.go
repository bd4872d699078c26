package ingest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestKillRestoreRoundTrip is the storage tentpole end to end, minus
// the actual SIGKILL (scripts/persist_smoke.sh covers the real
// process): host live, evolve the interface through log ingestion AND
// the dataset through row appends, snapshot, throw everything away,
// restore into a fresh registry, and assert the survivor serves the
// same state.
func TestKillRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// --- first life.
	reg1 := api.NewRegistry()
	ing1 := New(reg1, Options{})
	h1, err := ing1.Host("live", "round trip", fixtureLog(4), fixtureDB(t), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.Submit("live", []qlog.Entry{
		entry("SELECT a FROM t WHERE x = 30"),
		entry("SELECT a FROM t WHERE x = 31"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.SubmitRows("live", "t", [][]engine.Value{numRow(777, 30), numRow(778, 31)}); err != nil {
		t.Fatal(err)
	}
	p1 := NewPersister(dir, ing1, PersistOptions{})
	res, err := p1.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interfaces) != 1 || res.Interfaces[0].ID != "live" {
		t.Fatalf("snapshot result = %+v", res)
	}
	savedEpoch := h1.Epoch()
	savedWidgets := len(h1.Iface().Widgets)
	savedMined, _ := minedLen(ing1, "live")
	if res.Interfaces[0].Epoch != savedEpoch {
		t.Fatalf("snapshot epoch %d, live epoch %d", res.Interfaces[0].Epoch, savedEpoch)
	}
	if res.Interfaces[0].Rows != 52 {
		t.Fatalf("snapshot rows = %d, want 52", res.Interfaces[0].Rows)
	}

	// --- second life: nothing survives but the data dir.
	reg2 := api.NewRegistry()
	ing2 := New(reg2, Options{})
	p2 := NewPersister(dir, ing2, PersistOptions{})
	svc, restored, err := api.NewPersistentService(reg2, p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Interfaces) != 1 || restored.Interfaces[0].ID != "live" {
		t.Fatalf("restore result = %+v", restored)
	}

	h2, ok := reg2.Get("live")
	if !ok {
		t.Fatal("restored interface not hosted")
	}
	if h2.Epoch() < savedEpoch {
		t.Fatalf("restored epoch %d went backwards from %d", h2.Epoch(), savedEpoch)
	}
	if h2.Title != "round trip" {
		t.Fatalf("restored title %q", h2.Title)
	}
	if got := len(h2.Iface().Widgets); got != savedWidgets {
		t.Fatalf("restored widgets = %d, want %d", got, savedWidgets)
	}
	if got, _ := minedLen(ing2, "live"); got != savedMined {
		t.Fatalf("restored mined log = %d entries, want %d", got, savedMined)
	}
	st2, err := ing2.Store("live")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := st2.RowCount("t"); n != 52 {
		t.Fatalf("restored table rows = %d, want 52", n)
	}

	// The restored interface answers queries — including over the rows
	// appended in the first life.
	resp, err := svc.Query("live", api.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowCount == 0 {
		t.Fatal("restored interface returned no rows")
	}

	// And it keeps evolving: ingestion continues from the restored
	// miner state.
	if _, err := ing2.Submit("live", []qlog.Entry{entry("SELECT a FROM t WHERE x = 40")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := minedLen(ing2, "live"); got != savedMined+1 {
		t.Fatalf("post-restore ingestion mined %d, want %d", got, savedMined+1)
	}
	if _, err := ing2.SubmitRows("live", "t", [][]engine.Value{numRow(900, 40)}); err != nil {
		t.Fatal(err)
	}
	if n, _ := st2.RowCount("t"); n != 53 {
		t.Fatalf("post-restore append rows = %d, want 53", n)
	}
}

// TestRestoreReattachesFuncs: snapshot files cannot carry function
// values; the Funcs hook re-binds them to the restored tables.
func TestRestoreReattachesFuncs(t *testing.T) {
	dir := t.TempDir()
	reg1 := api.NewRegistry()
	ing1 := New(reg1, Options{})
	if _, err := ing1.Host("live", "udf", fixtureLog(4), fixtureDB(t), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersister(dir, ing1, PersistOptions{}).SaveAll(); err != nil {
		t.Fatal(err)
	}

	called := ""
	reg2 := api.NewRegistry()
	ing2 := New(reg2, Options{})
	p2 := NewPersister(dir, ing2, PersistOptions{
		Funcs: func(id string, st *store.Store) {
			called = id
			st.AddFunc("now_count", func(args []engine.Value) (*engine.Table, error) {
				return engine.NewTable("r", "x"), nil
			})
		},
	})
	if _, err := p2.Restore(); err != nil {
		t.Fatal(err)
	}
	if called != "live" {
		t.Fatalf("Funcs hook called for %q", called)
	}
	st2, err := ing2.Store("live")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Snapshot().Func("now_count"); !ok {
		t.Fatal("re-attached func missing from restored catalog")
	}
}

// TestRestoreKeepsDataEpoch: re-attaching a table-valued function at
// restore is not a data change. An SDSS interface restored with the
// attach function pi-serve uses reports the data epoch it was saved
// at, so a mutation guarded by the owner's pre-restart ifEpoch lands.
func TestRestoreKeepsDataEpoch(t *testing.T) {
	attach := func(id string, st *store.Store) {
		if gal, ok := st.Snapshot().Table("Galaxy"); ok {
			st.AddFunc("dbo.fGetNearbyObjEq", engine.FGetNearbyObjEq(gal))
		}
	}
	dir := t.TempDir()
	ing1 := New(api.NewRegistry(), Options{})
	if _, err := ing1.Host("sdss", "sdss", workload.SDSSClient(workload.Radial, 1, 20), engine.SDSSDB(50), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	res, err := NewPersister(dir, ing1, PersistOptions{Funcs: attach}).SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	saved := res.Interfaces[0].DataEpoch

	ing2 := New(api.NewRegistry(), Options{})
	if _, err := NewPersister(dir, ing2, PersistOptions{Funcs: attach}).Restore(); err != nil {
		t.Fatal(err)
	}
	st, err := ing2.Store("sdss")
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != saved {
		t.Fatalf("restored at data epoch %d, saved at %d", st.Epoch(), saved)
	}
	if _, ok := st.Snapshot().Func("dbo.fGetNearbyObjEq"); !ok {
		t.Fatal("restored catalog lacks the re-attached function")
	}
	ack, err := ing2.SubmitMutation("sdss", "UPDATE Galaxy SET redshift = 0 WHERE redshift > 1", saved)
	if err != nil || ack.Updated == 0 {
		t.Fatalf("mutation at the saved data epoch %d: ack %+v, %v", saved, ack, err)
	}
}

// TestRestoreFailsLoudlyOnCorruption: a snapshot that fails its
// checksum must abort the restore, not silently skip the interface.
func TestRestoreFailsLoudlyOnCorruption(t *testing.T) {
	dir := t.TempDir()
	reg1 := api.NewRegistry()
	ing1 := New(reg1, Options{})
	if _, err := ing1.Host("live", "x", fixtureLog(4), fixtureDB(t), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersister(dir, ing1, PersistOptions{}).SaveAll(); err != nil {
		t.Fatal(err)
	}
	path := store.SnapFile(dir, "live")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := api.NewRegistry()
	p2 := NewPersister(dir, New(reg2, Options{}), PersistOptions{})
	if _, _, err := api.NewPersistentService(reg2, p2); err == nil {
		t.Fatal("restore from a corrupt snapshot succeeded")
	}
}

// TestTailGlob: a glob pattern follows files that existed at start
// (from their end) and picks up files created afterwards (from their
// beginning).
func TestTailGlob(t *testing.T) {
	dir := t.TempDir()
	pre := filepath.Join(dir, "pre.log")
	// Pre-existing content must NOT be ingested (it is the batch log).
	if err := os.WriteFile(pre, []byte("SELECT a FROM t WHERE x = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ing, h := newIngester(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ing.Tail(ctx, "live", filepath.Join(dir, "*.log"), 5*time.Millisecond)
	}()

	// Give the tailer a poll to seed its file set, then grow the
	// pre-existing file and create a brand new one.
	time.Sleep(25 * time.Millisecond)
	f, err := os.OpenFile(pre, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "SELECT a FROM t WHERE x = 21;")
	f.Close()
	late := filepath.Join(dir, "late.log")
	if err := os.WriteFile(late, []byte("SELECT a FROM t WHERE x = 22;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file outside the pattern stays invisible.
	if err := os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("SELECT a FROM t WHERE x = 99;\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := minedLen(ing, "live"); n == 6 { // 4 initial + 2 tailed
			break
		}
		if time.Now().After(deadline) {
			n, _ := minedLen(ing, "live")
			t.Fatalf("mined %d entries, want 6", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("tail returned %v", err)
	}

	// Both tailed values are inside a mined widget domain; 99 is not.
	hit21, hit22, hit99 := false, false, false
	for _, w := range h.Iface().Widgets {
		if !w.Domain.IsNumericRange() {
			continue
		}
		lo, hi := w.Domain.Range()
		if lo <= 21 && 21 <= hi {
			hit21 = true
		}
		if lo <= 22 && 22 <= hi {
			hit22 = true
		}
		if hi >= 99 {
			hit99 = true
		}
	}
	if !hit21 || !hit22 {
		t.Fatalf("tailed entries not mined (21=%v 22=%v)", hit21, hit22)
	}
	if hit99 {
		t.Fatal("file outside the glob was ingested")
	}
}

// TestSavesUnderUpdatesWithoutWAL: under UPDATE traffic with no WAL,
// some saves write a new base and others leave the log to carry the
// cycle, and a restore reproduces the state byte for byte either way.
func TestSavesUnderUpdatesWithoutWAL(t *testing.T) {
	const cycles, touched = 20, 5
	dir := t.TempDir()
	_, ing, _ := newIngester(t, Options{})
	p := NewPersister(dir, ing, PersistOptions{})
	defer p.Close()
	// A base big enough that one cycle's log record stays under the
	// checkpoint fraction.
	growTable(t, ing, 500)
	bases := 0
	for i := 0; i < cycles; i++ {
		ack, err := ing.SubmitMutation("live", fmt.Sprintf("UPDATE t SET a = %d WHERE x <= %d", i, touched), 0)
		if err != nil || ack.Updated != touched {
			t.Fatalf("cycle %d: ack %+v, %v", i, ack, err)
		}
		res, err := p.SaveAll()
		if err != nil {
			t.Fatal(err)
		}
		if res.Interfaces[0].Bytes > 0 {
			bases++
		}
	}
	if bases == 0 || bases == cycles {
		t.Fatalf("%d of %d saves wrote a base; want the log to carry some cycles and outgrow the base in others", bases, cycles)
	}
	want := stateOf(t, ing)

	ing2 := New(api.NewRegistry(), Options{})
	if _, err := NewPersister(dir, ing2, PersistOptions{}).Restore(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, ing2); got.epoch != want.epoch || got.seq != want.seq || !bytes.Equal(got.frame, want.frame) {
		t.Fatalf("restore at (epoch %d, seq %d, %d bytes), saved (%d, %d, %d bytes)",
			got.epoch, got.seq, len(got.frame), want.epoch, want.seq, len(want.frame))
	}
}

// growTable acks one append of n rows whose x values (1000 and up)
// stay clear of the fixture's.
func growTable(t *testing.T, ing *Ingester, n int) {
	t.Helper()
	rows := make([][]engine.Value, n)
	for i := range rows {
		rows[i] = numRow(float64(i), float64(1000+i))
	}
	if _, err := ing.SubmitRows("live", "t", rows); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultPersisterJournalsAcks: a persister built with no options
// journals every ack. After the base is anchored, an acked log batch,
// a row append and an UPDATE are never saved; the persister is
// abandoned without a save or a close, and a fresh ingester on the same
// dir restores every one of them.
func TestDefaultPersisterJournalsAcks(t *testing.T) {
	dir := t.TempDir()
	_, ing1, _ := newIngester(t, Options{})
	p1 := NewPersister(dir, ing1, PersistOptions{})
	if _, err := p1.SaveAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.Submit("live", []qlog.Entry{
		entry("SELECT a FROM t WHERE x = 30"),
		entry("SELECT a FROM t WHERE x = 31"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.SubmitRows("live", "t", [][]engine.Value{numRow(777, 30)}); err != nil {
		t.Fatal(err)
	}
	if ack, err := ing1.SubmitMutation("live", "UPDATE t SET a = -1 WHERE x <= 2", 0); err != nil || ack.Updated != 2 {
		t.Fatalf("update ack %+v, %v", ack, err)
	}
	want := stateOf(t, ing1)
	if want.seq != 3 {
		t.Fatalf("first life acked %d publications, want 3", want.seq)
	}

	ing2 := New(api.NewRegistry(), Options{})
	p2 := NewPersister(dir, ing2, PersistOptions{})
	defer p2.Close()
	if _, err := p2.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, ing2); got.epoch != want.epoch || got.seq != want.seq || !bytes.Equal(got.frame, want.frame) {
		t.Fatalf("restore at (epoch %d, seq %d, %d bytes), acked (%d, %d, %d bytes)",
			got.epoch, got.seq, len(got.frame), want.epoch, want.seq, len(want.frame))
	}
}

// TestRestoreMissingDirIsEmpty: a data dir that was never created is a
// first boot, not an error.
func TestRestoreMissingDirIsEmpty(t *testing.T) {
	p := NewPersister(filepath.Join(t.TempDir(), "never-created"), New(api.NewRegistry(), Options{}), PersistOptions{})
	res, err := p.Restore()
	if err != nil || len(res.Interfaces) != 0 {
		t.Fatalf("Restore = %+v, %v; want nothing, nil", res, err)
	}
}
