package wal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/qlog"
)

func rowRecord(seq uint64, n int) Record {
	rows := make([][]engine.Value, n)
	for i := range rows {
		rows[i] = []engine.Value{engine.Str("AA"), engine.Num(float64(seq))}
	}
	return Record{Seq: seq, Epoch: seq + 10, Rows: []TableRows{{Table: "ontime", Rows: rows}}}
}

func collect(t *testing.T, m *Manager, id string, from uint64) []Record {
	t.Helper()
	var out []Record
	if err := m.Replay(id, from, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	rec := Record{
		Seq:     1,
		Epoch:   2,
		Entries: []qlog.Entry{{SQL: "SELECT 1", Client: "c1"}},
	}
	if err := m.Append("olap", rec); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := m.Append("olap", rowRecord(2, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen cold, as a restart would.
	m2 := NewManager(dir, Options{})
	got := collect(t, m2, "olap", 0)
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	if got[0].Seq != 1 || got[0].Epoch != 2 || len(got[0].Entries) != 1 || got[0].Entries[0].SQL != "SELECT 1" {
		t.Fatalf("record 1 mangled: %+v", got[0])
	}
	if got[1].Seq != 2 || len(got[1].Rows) != 1 || len(got[1].Rows[0].Rows) != 3 {
		t.Fatalf("record 2 mangled: %+v", got[1])
	}
	// Replay from a floor skips covered records.
	if got := collect(t, m2, "olap", 1); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("replay from 1 returned %+v", got)
	}
}

func TestAppendIsSeqIdempotentAndGapSafe(t *testing.T) {
	m := NewManager(t.TempDir(), Options{})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := m.Append("olap", rowRecord(seq, 1)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	// Re-appending an already-logged seq is a durable no-op (the
	// restore path re-drives acked publications through Append).
	if err := m.Append("olap", rowRecord(2, 99)); err != nil {
		t.Fatalf("idempotent append: %v", err)
	}
	if got := collect(t, m, "olap", 0); len(got) != 3 || len(got[1].Rows[0].Rows) != 1 {
		t.Fatalf("idempotent append rewrote history: %d records", len(got))
	}
	// A gap means a publication was lost between feed and log: refuse.
	if err := m.Append("olap", rowRecord(9, 1)); err == nil {
		t.Fatal("gap append succeeded; want error")
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{SegmentBytes: 256}) // tiny: rotate every couple of records
	for seq := uint64(1); seq <= 20; seq++ {
		if err := m.Append("olap", rowRecord(seq, 2)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	st, ok := m.Status("olap")
	if !ok || st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %+v", st)
	}
	if st.LastSeq != 20 || st.SyncedSeq != 20 {
		t.Fatalf("position wrong: %+v", st)
	}

	// A snapshot covering seq 15 makes most segments redundant.
	if err := m.Truncate("olap", 15); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	after, _ := m.Status("olap")
	if after.Segments >= st.Segments {
		t.Fatalf("truncate dropped nothing: %d -> %d segments", st.Segments, after.Segments)
	}
	// Records past the snapshot survive; the log still appends.
	got := collect(t, m, "olap", 15)
	if len(got) != 5 || got[0].Seq != 16 || got[4].Seq != 20 {
		t.Fatalf("post-truncate replay wrong: %d records", len(got))
	}
	if err := m.Append("olap", rowRecord(21, 1)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}

	// Truncating everything leaves an empty, appendable log.
	if err := m.Truncate("olap", 21); err != nil {
		t.Fatalf("truncate all: %v", err)
	}
	if got := collect(t, m, "olap", 0); len(got) != 0 {
		t.Fatalf("full truncate left %d records", len(got))
	}
	if err := m.Append("olap", rowRecord(22, 1)); err != nil {
		t.Fatalf("append after full truncate: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m2 := NewManager(dir, Options{})
	if got := collect(t, m2, "olap", 0); len(got) != 1 || got[0].Seq != 22 {
		t.Fatalf("reopen after truncate lost the tail: %+v", got)
	}
}

func TestTornTailIsTruncatedNotApplied(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	for seq := uint64(1); seq <= 5; seq++ {
		if err := m.Append("olap", rowRecord(seq, 2)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Corrupt the final record in place: flip bytes near the end of the
	// newest segment — the shape a crash mid-write leaves behind.
	segs, err := filepath.Glob(filepath.Join(LogDir(dir, "olap"), "*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	path := segs[len(segs)-1]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	for i := len(raw) - 4; i < len(raw); i++ {
		raw[i] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupt segment: %v", err)
	}

	m2 := NewManager(dir, Options{})
	got := collect(t, m2, "olap", 0)
	if len(got) != 4 || got[len(got)-1].Seq != 4 {
		t.Fatalf("torn tail not cut to the last good record: %d records", len(got))
	}
	st, _ := m2.Status("olap")
	if !st.Truncated {
		t.Fatalf("status does not report the truncation: %+v", st)
	}
	if st.LastSeq != 4 {
		t.Fatalf("lastSeq %d after torn-tail cut, want 4", st.LastSeq)
	}
	// The log keeps appending from the cut position.
	if err := m2.Append("olap", rowRecord(5, 1)); err != nil {
		t.Fatalf("append after cut: %v", err)
	}
	// Corruption NOT at the newest segment must fail loudly instead.
	if err := m2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m3 := NewManager(dir, Options{SegmentBytes: 128})
	for seq := uint64(6); seq <= 12; seq++ {
		if err := m3.Append("olap", rowRecord(seq, 2)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if err := m3.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ = filepath.Glob(filepath.Join(LogDir(dir, "olap"), "*"+segSuffix))
	if len(segs) < 2 {
		t.Fatalf("need 2+ segments, got %d", len(segs))
	}
	raw, _ = os.ReadFile(segs[0])
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatalf("corrupt first segment: %v", err)
	}
	if _, err := NewManager(dir, Options{}).Log("olap"); err == nil {
		t.Fatal("mid-log corruption opened cleanly; want loud error")
	}
}

func TestGroupCommitConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	l, err := m.Log("olap")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Concurrent appenders share a seq dispenser the way feeds do (one
	// lock, monotone seq) and must all return only once durable.
	var seqMu sync.Mutex
	var next uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				seqMu.Lock()
				next++
				r := rowRecord(next, 1)
				// Hold the dispenser across Append, mirroring the feed
				// lock: seqs reach the log in order.
				if err := l.Append(r); err != nil {
					seqMu.Unlock()
					t.Errorf("append %d: %v", r.Seq, err)
					return
				}
				seqMu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := l.Status()
	if st.LastSeq != 200 || st.SyncedSeq != 200 {
		t.Fatalf("positions wrong after concurrent appends: %+v", st)
	}
	if st.Syncs >= st.Appends {
		t.Logf("no amortization observed (syncs %d, appends %d) — legal but unusual", st.Syncs, st.Appends)
	}
	if got := collect(t, m, "olap", 0); len(got) != 200 {
		t.Fatalf("replayed %d records, want 200", len(got))
	}
}

// TestFailedFsyncPoisonsLog: once a group-commit fsync fails, no
// record it covered may be acked by a later, retried fsync — the kernel
// may have dropped the very pages that failed to write. Seq 1's leader
// holds its fsync while seqs 2 and 3 queue behind it; the next leader's
// fsync (covering 2 and 3) fails. Both waiters, a later Append and
// Close must all return that error.
func TestFailedFsyncPoisonsLog(t *testing.T) {
	m := NewManager(t.TempDir(), Options{})
	l, err := m.Log("olap")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	injected := errors.New("injected EIO")
	entered, release := make(chan struct{}), make(chan struct{})
	var calls int
	fsync = func(f *os.File) error {
		calls++ // only ever one leader at a time
		switch calls {
		case 1:
			close(entered)
			<-release
		case 2:
			return injected
		}
		return f.Sync()
	}
	t.Cleanup(func() { fsync = (*os.File).Sync })

	errs := make(map[uint64]chan error)
	appendAsync := func(seq uint64) {
		ch := make(chan error, 1)
		errs[seq] = ch
		go func() { ch <- l.Append(rowRecord(seq, 1)) }()
	}
	appendAsync(1)
	<-entered
	for seq := uint64(2); seq <= 3; seq++ {
		appendAsync(seq)
		for l.Status().LastSeq != seq { // written, now waiting on the leader
			runtime.Gosched()
		}
	}
	close(release)

	if err := <-errs[1]; err != nil {
		t.Fatalf("seq 1, synced before the failure: %v", err)
	}
	for seq := uint64(2); seq <= 3; seq++ {
		if err := <-errs[seq]; !errors.Is(err, injected) {
			t.Errorf("seq %d, covered by the failed fsync, returned %v; want the fsync error", seq, err)
		}
	}
	if err := l.Append(rowRecord(4, 1)); !errors.Is(err, injected) {
		t.Errorf("append after the failure returned %v; want the fsync error", err)
	}
	if st := l.Status(); st.SyncedSeq != 1 || st.LastSeq != 3 {
		t.Errorf("positions after the failure = %+v; want synced 1, last 3", st)
	}
	if err := m.Close(); !errors.Is(err, injected) {
		t.Errorf("close returned %v; want the fsync error", err)
	}
}

func TestResetDiscardsAndResumes(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	for seq := uint64(1); seq <= 4; seq++ {
		if err := m.Append("olap", rowRecord(seq, 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// A seed frame at seq 40 replaced local state: the old tail is
	// garbage, the next publication carries 41.
	if err := m.Reset("olap", 40); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if got := collect(t, m, "olap", 0); len(got) != 0 {
		t.Fatalf("reset left %d records", len(got))
	}
	if err := m.Append("olap", rowRecord(40, 1)); err != nil {
		t.Fatalf("append at reset seq should be a no-op: %v", err)
	}
	if err := m.Append("olap", rowRecord(41, 1)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m2 := NewManager(dir, Options{})
	got := collect(t, m2, "olap", 40)
	if len(got) != 1 || got[0].Seq != 41 {
		t.Fatalf("reset position did not survive reopen: %+v", got)
	}
}

func TestRemoveDeletesLog(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	if err := m.Append("olap", rowRecord(1, 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := m.Remove("olap"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := os.Stat(LogDir(dir, "olap")); !os.IsNotExist(err) {
		t.Fatalf("log dir survived remove: %v", err)
	}
	// A fresh log under the same id starts clean.
	if err := m.Append("olap", rowRecord(1, 1)); err != nil {
		t.Fatalf("append after remove: %v", err)
	}
}
