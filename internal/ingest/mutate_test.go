package ingest

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wal"
)

// tableVals flattens the interface's current table into x -> a, the
// shape the mutation tests compare before/after and across processes.
func tableVals(t *testing.T, ing *Ingester, id, table string) map[float64]float64 {
	t.Helper()
	st, err := ing.Store(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := st.Snapshot().Table(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	out := make(map[float64]float64, len(tab.Rows))
	for _, r := range tab.Rows {
		a, _ := r[0].AsNumber()
		x, _ := r[1].AsNumber()
		out[x] = a
	}
	return out
}

// TestSubmitMutationUpdateDelete drives the full DML slice through
// SQL: parse, plan against the snapshot, resolve matched rows to
// rowids, publish, swap, count.
func TestSubmitMutationUpdateDelete(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	epoch0 := h.Epoch()
	seq0, _ := ing.Seq("live")

	ack, err := ing.SubmitMutation("live", "UPDATE t SET a = a + 1 WHERE x <= 10", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Table != "t" || ack.Matched != 10 || ack.Updated != 10 || ack.Deleted != 0 {
		t.Fatalf("update ack = %+v, want 10 matched/updated on t", ack)
	}
	if ack.Epoch != epoch0+1 || h.Epoch() != epoch0+1 {
		t.Fatalf("update published at epoch %d (hosted %d), want %d", ack.Epoch, h.Epoch(), epoch0+1)
	}
	vals := tableVals(t, ing, "live", "t")
	if vals[5] != 51 || vals[10] != 101 {
		t.Fatalf("SET a = a + 1 gave a(5)=%v a(10)=%v, want 51/101", vals[5], vals[10])
	}
	if vals[20] != 200 {
		t.Fatalf("row outside the predicate changed: a(20)=%v", vals[20])
	}

	ack, err = ing.SubmitMutation("live", "DELETE FROM t WHERE x > 45", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Matched != 5 || ack.Deleted != 5 || ack.Updated != 0 {
		t.Fatalf("delete ack = %+v, want 5 matched/deleted", ack)
	}
	vals = tableVals(t, ing, "live", "t")
	if len(vals) != 45 {
		t.Fatalf("%d rows after delete, want 45", len(vals))
	}
	if _, alive := vals[46]; alive {
		t.Fatal("deleted row still visible")
	}

	st, ok := ing.IngestStatus("live")
	if !ok || st.RowsMutated != 15 || st.Mutations != 2 {
		t.Fatalf("status = %+v, want 15 rows mutated over 2 mutations", st)
	}
	if seq, _ := ing.Seq("live"); seq != seq0+2 {
		t.Fatalf("seq = %d, want %d (one publication per mutation)", seq, seq0+2)
	}
}

// TestSubmitMutationConflictAndZeroMatch: the conditional-write and
// no-op edges. A stale ifEpoch refuses with the structured conflict
// code and publishes nothing; a predicate matching zero rows acks
// without bumping anything; non-DML statements are rejected.
func TestSubmitMutationConflictAndZeroMatch(t *testing.T) {
	_, ing, h := newIngester(t, Options{})
	st, _ := ing.Store("live")
	cur := st.Epoch()
	seq0, _ := ing.Seq("live")
	epoch0 := h.Epoch()

	_, err := ing.SubmitMutation("live", "DELETE FROM t WHERE x = 1", cur+5)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeMutationConflict || ae.Status != http.StatusConflict {
		t.Fatalf("stale ifEpoch error = %v, want %s/409", err, api.CodeMutationConflict)
	}
	if st.Epoch() != cur || h.Epoch() != epoch0 {
		t.Fatal("refused mutation still published")
	}

	ack, err := ing.SubmitMutation("live", "DELETE FROM t WHERE x > 1000", 0)
	if err != nil || ack.Matched != 0 {
		t.Fatalf("zero-match ack = %+v, %v", ack, err)
	}
	if seq, _ := ing.Seq("live"); seq != seq0 || st.Epoch() != cur || h.Epoch() != epoch0 {
		t.Fatal("zero-match mutation published")
	}

	if _, err := ing.SubmitMutation("live", "SELECT a FROM t", 0); err == nil {
		t.Fatal("SELECT accepted as a mutation")
	}
	if _, err := ing.SubmitMutation("live", "UPDATE t SET", 0); err == nil {
		t.Fatal("malformed UPDATE accepted")
	}

	// The matching ifEpoch goes through.
	ack, err = ing.SubmitMutation("live", "UPDATE t SET a = 0 WHERE x = 1", cur)
	if err != nil || ack.Matched != 1 {
		t.Fatalf("conditional mutation at the right epoch = %+v, %v", ack, err)
	}
}

// TestSubmitMutationReplicatesToFollower: mutations ride the publish
// hook as resolved rowid sets, and a follower applying them in order
// lands on byte-identical rows and identities.
func TestSubmitMutationReplicatesToFollower(t *testing.T) {
	_, owner, _ := newIngester(t, Options{})
	follower := New(api.NewRegistry(), Options{})
	if _, err := follower.Host("live", "live test", fixtureLog(4), fixtureDB(t), core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	var pubs []Publication
	owner.SetPublishHook(func(id string, p Publication) error {
		pubs = append(pubs, p)
		return nil
	})
	if _, err := owner.SubmitMutation("live", "UPDATE t SET a = -7 WHERE x <= 3", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.SubmitMutation("live", "DELETE FROM t WHERE x = 50", 0); err != nil {
		t.Fatal(err)
	}
	if len(pubs) != 2 || len(pubs[0].Muts) != 1 || len(pubs[1].Muts) != 1 {
		t.Fatalf("publications = %+v, want one mutation set each", pubs)
	}
	up := pubs[0].Muts[0]
	if up.Table != "t" || len(up.Updates) != 3 || len(up.Deletes) != 0 {
		t.Fatalf("update publication = %+v, want 3 rowid updates on t", up)
	}
	for _, u := range up.Updates {
		if u.RowID == 0 {
			t.Fatal("publication carries an unresolved rowid")
		}
	}
	if del := pubs[1].Muts[0]; len(del.Deletes) != 1 || len(del.Updates) != 0 {
		t.Fatalf("delete publication = %+v, want 1 rowid delete", del)
	}

	for _, p := range pubs {
		if err := follower.Apply("live", p); err != nil {
			t.Fatalf("apply seq %d: %v", p.Seq, err)
		}
	}
	if !reflect.DeepEqual(tableVals(t, owner, "live", "t"), tableVals(t, follower, "live", "t")) {
		t.Fatal("follower rows diverge from owner after applying the stream")
	}
	os, _ := owner.Store("live")
	fs, _ := follower.Store("live")
	oids, _ := os.Snapshot().RowIDs("t")
	fids, _ := fs.Snapshot().RowIDs("t")
	if !reflect.DeepEqual(oids, fids) {
		t.Fatal("follower row identities diverge from owner")
	}
}

// TestWALMutationKillRestoreRoundTrip is the issue's crash-injection
// contract: an acked UPDATE/DELETE that exists only in the WAL (the
// snapshot predates it) survives a cold restart via replay, and the
// logged tail hands the same mutations to a catching-up follower.
func TestWALMutationKillRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, ing1, p1, _ := newWALPersister(t, dir, PersistOptions{})
	if _, err := p1.SaveAll(); err != nil {
		t.Fatal(err)
	}
	base, _ := ing1.Seq("live")

	// Acked but never saved: journal-only from here.
	if _, err := ing1.SubmitMutation("live", "UPDATE t SET a = a * 2 WHERE x <= 5", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ing1.SubmitMutation("live", "DELETE FROM t WHERE x >= 48", 0); err != nil {
		t.Fatal(err)
	}
	wantSeq, _ := ing1.Seq("live")
	wantVals := tableVals(t, ing1, "live", "t")
	if len(wantVals) != 47 || wantVals[5] != 100 {
		t.Fatalf("first-life state = %d rows, a(5)=%v", len(wantVals), wantVals[5])
	}

	// Follower catch-up over the same tail carries the mutation sets.
	pubs, ok := p1.CatchUp("live", base)
	if !ok || len(pubs) != 2 {
		t.Fatalf("CatchUp = %d pubs, ok=%v, want 2", len(pubs), ok)
	}
	if len(pubs[0].Muts) != 1 || len(pubs[0].Muts[0].Updates) != 5 {
		t.Fatalf("catch-up pub 0 = %+v, want 5 updates", pubs[0].Muts)
	}
	if len(pubs[1].Muts) != 1 || len(pubs[1].Muts[0].Deletes) != 3 {
		t.Fatalf("catch-up pub 1 = %+v, want 3 deletes", pubs[1].Muts)
	}

	// Cold restore: the snapshot has none of it; replay must re-apply
	// every acked mutation — zero acked-then-lost.
	ing2 := New(api.NewRegistry(), Options{})
	m2 := wal.NewManager(dir, wal.Options{})
	defer m2.Close()
	if _, err := NewPersister(dir, ing2, PersistOptions{WAL: m2}).Restore(); err != nil {
		t.Fatal(err)
	}
	if got, _ := ing2.Seq("live"); got != wantSeq {
		t.Fatalf("restored seq = %d, want %d", got, wantSeq)
	}
	if got := tableVals(t, ing2, "live", "t"); !reflect.DeepEqual(got, wantVals) {
		t.Fatalf("restored rows diverge:\ngot  %v\nwant %v", got, wantVals)
	}
}

// TestWALMutationDifferentialSave: a save after a small mutation
// writes no new base — the log already carries the rowid-keyed
// mutation set — and base + log restores the exact post-mutation state
// with row identities intact.
func TestWALMutationDifferentialSave(t *testing.T) {
	dir := t.TempDir()
	_, ing, p, _ := newWALPersister(t, dir, PersistOptions{})
	growTable(t, ing, 500) // a base the one-row DELETE is small against
	if _, err := p.SaveAll(); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(store.SnapFile(dir, "live"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.SubmitMutation("live", "DELETE FROM t WHERE x = 7", 0); err != nil {
		t.Fatal(err)
	}
	res, err := p.SaveAll()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interfaces[0].Bytes != 0 || res.Interfaces[0].Rows != 549 {
		t.Fatalf("save after one DELETE = %+v, want no base written and 549 rows reported", res.Interfaces[0])
	}
	if after, err := os.ReadFile(store.SnapFile(dir, "live")); err != nil || !bytes.Equal(after, base) {
		t.Fatalf("the save rewrote the base (%v)", err)
	}

	ing2 := New(api.NewRegistry(), Options{})
	m2 := wal.NewManager(dir, wal.Options{})
	defer m2.Close()
	if _, err := NewPersister(dir, ing2, PersistOptions{WAL: m2}).Restore(); err != nil {
		t.Fatal(err)
	}
	vals := tableVals(t, ing2, "live", "t")
	if len(vals) != 549 {
		t.Fatalf("restored rows = %d, want 549", len(vals))
	}
	if _, alive := vals[7]; alive {
		t.Fatal("deleted row resurrected by the restore")
	}
	// The restored interface keeps accepting mutations — identities
	// round-tripped through the base and the logged mutation set.
	if ack, err := ing2.SubmitMutation("live", "DELETE FROM t WHERE x = 8", 0); err != nil || ack.Deleted != 1 {
		t.Fatalf("post-restore mutation = %+v, %v", ack, err)
	}
}
