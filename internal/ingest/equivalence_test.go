package ingest

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
	"repro/internal/wal"
)

// equivDB is fixtureDB's table t plus the rows three-valued logic
// needs — (a, x) = (NULL, 60), (610, NULL), (NULL, NULL) — and a second
// table u, so one row publication can span tables.
func equivDB(t *testing.T) *engine.DB {
	t.Helper()
	db := fixtureDB(t)
	tbl, _ := db.Table("t")
	for _, r := range [][]engine.Value{
		{engine.Null(), engine.Num(60)},
		{engine.Num(610), engine.Null()},
		{engine.Null(), engine.Null()},
	} {
		if err := tbl.AddRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	u := engine.NewTable("u", "k")
	for i := 1; i <= 3; i++ {
		if err := u.AddRow(engine.Num(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	db.AddTable(u)
	return db
}

// copies is the three ways one interface's state comes to exist: the
// owner that took the writes (journaling them to a WAL and capturing
// them off the publish hook), a follower fed the captured publications
// through Apply, and — built on demand — a restore of the owner's data
// dir, which replays the WAL tail through the same Apply.
type copies struct {
	owner, follower *Ingester
	dir             string
	pubs            []Publication
}

func newCopies(t *testing.T) *copies {
	t.Helper()
	c := &copies{dir: t.TempDir()}
	host := func() *Ingester {
		ing := New(api.NewRegistry(), Options{})
		if _, err := ing.Host("live", "live test", fixtureLog(4), equivDB(t), core.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		return ing
	}
	c.owner, c.follower = host(), host()
	mgr := wal.NewManager(c.dir, wal.Options{})
	t.Cleanup(func() { mgr.Close() })
	if _, err := NewPersister(c.dir, c.owner, PersistOptions{WAL: mgr}).SaveAll(); err != nil {
		t.Fatal(err)
	}
	c.owner.SetPublishHook(func(id string, p Publication) error {
		c.pubs = append(c.pubs, p)
		return nil
	})
	return c
}

// state is what must be identical across the copies.
type state struct {
	frame      []byte
	epoch, seq uint64
}

func stateOf(t *testing.T, ing *Ingester) state {
	t.Helper()
	snap, err := ing.Capture("live")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := store.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return state{frame: frame, epoch: snap.Epoch, seq: snap.Seq}
}

func (c *copies) restored(t *testing.T) *Ingester {
	t.Helper()
	ing := New(api.NewRegistry(), Options{})
	mgr := wal.NewManager(c.dir, wal.Options{})
	t.Cleanup(func() { mgr.Close() })
	if _, err := NewPersister(c.dir, ing, PersistOptions{WAL: mgr}).Restore(); err != nil {
		t.Fatalf("restore owner's data dir: %v", err)
	}
	return ing
}

// mutate runs one statement on the owner and pins how many rows its
// predicate matched — the three-valued-logic half of the test.
func mutate(t *testing.T, ing *Ingester, sql string, wantMatched int) {
	t.Helper()
	ack, err := ing.SubmitMutation("live", sql, 0)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if ack.Matched != wantMatched {
		t.Fatalf("%s matched %d rows, want %d", sql, ack.Matched, wantMatched)
	}
}

// TestOwnerFollowerReplayEquivalent: for every kind of publication the
// owner, a follower applying the captured stream and a restore of the
// owner's data dir hold byte-identical state at the same epoch and
// sequence number. The mutation cases drive each WHERE/SET shape
// through NULLs as this engine evaluates them: = NULL is never true,
// ordering comparisons sort NULL first (so NULL > 3 is false and NOT
// flips it), IS [NOT] NULL tests the value itself, AND/OR combine the
// results; SET takes literals, NULL and expressions over the old row,
// and arithmetic over a NULL fails the statement without publishing.
func TestOwnerFollowerReplayEquivalent(t *testing.T) {
	cases := []struct {
		name     string
		write    func(t *testing.T, owner *Ingester)
		wantPubs int
		kind     func(p Publication) bool
	}{
		{
			name: "log batch",
			write: func(t *testing.T, owner *Ingester) {
				if _, err := owner.Submit("live", []qlog.Entry{
					entry("SELECT a FROM t WHERE x = 30"), entry("SELECT a FROM t WHERE x = 31"),
				}); err != nil {
					t.Fatal(err)
				}
			},
			wantPubs: 1,
			kind:     func(p Publication) bool { return len(p.Entries) == 2 },
		},
		{
			name: "rows across two tables",
			write: func(t *testing.T, owner *Ingester) {
				// No rows request spans tables; an older owner's WAL or
				// stream can, so publish one directly.
				f, err := owner.feed("live")
				if err != nil {
					t.Fatal(err)
				}
				f.mu.Lock()
				defer f.mu.Unlock()
				if _, err := owner.publishLocked(f, Publication{Rows: []TableRows{
					{Table: "t", Rows: [][]engine.Value{numRow(700, 70), {engine.Null(), engine.Num(71)}}},
					{Table: "u", Rows: [][]engine.Value{numRow(4)}},
				}}); err != nil {
					t.Fatal(err)
				}
			},
			wantPubs: 1,
			kind:     func(p Publication) bool { return len(p.Rows) == 2 },
		},
		{
			name: "update",
			write: func(t *testing.T, owner *Ingester) {
				mutate(t, owner, "UPDATE t SET a = a + 1 WHERE x = NULL", 0) // = NULL is never true: no publish
				if _, err := owner.SubmitMutation("live", "UPDATE t SET a = a * 2 WHERE x = 60", 0); err == nil {
					t.Fatal("arithmetic over a NULL column did not fail the statement")
				}
				mutate(t, owner, "UPDATE t SET a = NULL WHERE x IS NULL", 2)                        // SET NULL
				mutate(t, owner, "UPDATE t SET a = a + 1, x = 0 WHERE a IS NOT NULL AND x > 48", 2) // exprs over the old row
				mutate(t, owner, "UPDATE t SET x = 1 WHERE a > 10000 OR x IS NULL", 2)              // false OR true
				mutate(t, owner, "UPDATE u SET k = k + 10", 3)                                      // no WHERE: every row
			},
			wantPubs: 4,
			kind:     func(p Publication) bool { return len(p.Muts) == 1 && len(p.Muts[0].Updates) > 0 },
		},
		{
			name: "delete",
			write: func(t *testing.T, owner *Ingester) {
				mutate(t, owner, "DELETE FROM t WHERE a = NULL", 0)            // = NULL is never true: no publish
				mutate(t, owner, "DELETE FROM t WHERE NOT (x > 3)", 5)         // NULL > 3 is false, so NOT takes both NULL-x rows too
				mutate(t, owner, "DELETE FROM t WHERE a > 0 AND x > 49", 1)    // x = 50; (NULL, 60) fails a > 0
				mutate(t, owner, "DELETE FROM t WHERE a IS NULL", 1)           // (NULL, 60)
				mutate(t, owner, "DELETE FROM t WHERE x IS NULL OR a < 50", 1) // false OR true: a = 40
			},
			wantPubs: 4,
			kind:     func(p Publication) bool { return len(p.Muts) == 1 && len(p.Muts[0].Deletes) > 0 },
		},
		{
			name: "bare bump",
			write: func(t *testing.T, owner *Ingester) {
				if _, _, err := owner.PublishBump("live"); err != nil {
					t.Fatal(err)
				}
			},
			wantPubs: 1,
			kind: func(p Publication) bool {
				return len(p.Entries)+len(p.Rows)+len(p.Muts) == 0
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCopies(t)
			before := stateOf(t, c.owner)
			tc.write(t, c.owner)
			if len(c.pubs) != tc.wantPubs {
				t.Fatalf("owner published %d times, want %d: %+v", len(c.pubs), tc.wantPubs, c.pubs)
			}
			for i, p := range c.pubs {
				if !tc.kind(p) {
					t.Fatalf("publication %d has the wrong shape: %+v", i, p)
				}
				if p.Seq != before.seq+uint64(i)+1 || p.Epoch != before.epoch+uint64(i)+1 {
					t.Fatalf("publication %d at (seq %d, epoch %d), want (%d, %d)",
						i, p.Seq, p.Epoch, before.seq+uint64(i)+1, before.epoch+uint64(i)+1)
				}
				if err := c.follower.Apply("live", p); err != nil {
					t.Fatalf("follower apply seq %d: %v", p.Seq, err)
				}
			}
			want := stateOf(t, c.owner)
			if want.seq != before.seq+uint64(tc.wantPubs) {
				t.Fatalf("owner seq %d, want %d", want.seq, before.seq+uint64(tc.wantPubs))
			}
			for name, ing := range map[string]*Ingester{"follower": c.follower, "restored": c.restored(t)} {
				got := stateOf(t, ing)
				if got.epoch != want.epoch || got.seq != want.seq {
					t.Fatalf("%s at (epoch %d, seq %d), owner at (%d, %d)", name, got.epoch, got.seq, want.epoch, want.seq)
				}
				if !bytes.Equal(got.frame, want.frame) {
					t.Fatalf("%s state differs from the owner's (%d vs %d frame bytes)", name, len(got.frame), len(want.frame))
				}
			}
		})
	}
}

// TestApplyRefusesOutOfLockstep: a publication that does not continue
// the feed's stream — a sequence gap, or the right slot at the wrong
// epoch — is refused as diverged before anything changes.
func TestApplyRefusesOutOfLockstep(t *testing.T) {
	c := newCopies(t)
	if _, err := c.owner.SubmitRows("live", "u", [][]engine.Value{numRow(9)}); err != nil {
		t.Fatal(err)
	}
	good := c.pubs[0]
	before := stateOf(t, c.follower)
	gap, drift := good, good
	gap.Seq++
	drift.Epoch++
	for name, p := range map[string]Publication{"seq gap": gap, "epoch mismatch": drift} {
		if err := c.follower.Apply("live", p); !errors.Is(err, ErrReplicaDiverged) {
			t.Fatalf("%s: Apply = %v, want ErrReplicaDiverged", name, err)
		}
		if after := stateOf(t, c.follower); after.seq != before.seq || after.epoch != before.epoch || !bytes.Equal(after.frame, before.frame) {
			t.Fatalf("%s changed the feed: (epoch %d, seq %d) -> (%d, %d)", name, before.epoch, before.seq, after.epoch, after.seq)
		}
	}
	if err := c.follower.Apply("live", good); err != nil {
		t.Fatalf("the in-lockstep publication was refused afterwards: %v", err)
	}
}
