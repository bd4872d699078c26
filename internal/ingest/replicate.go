package ingest

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/wal"
)

// This file is the one write path of a feed. Every epoch-bumping
// publish — on the owner that produced it, on a follower the
// replication stream feeds (internal/replica) and on a restore
// replaying its WAL tail — lands through land: the same lines apply
// the publication's content to the miner and the store, hot-swap the
// hosted interface, advance the sequence number and journal it. The
// owner's four paths (Submit, SubmitRows, SubmitMutation, PublishBump)
// reach it through publishLocked after their own bounds checks and DML
// evaluation; everything else reaches it through Apply, which first checks that the publication continues
// this feed's stream. Because all of it runs under the per-feed lock,
// publications carry per-interface monotone sequence numbers for free.

// Publication is one epoch-bumping publish (see wal.Record, the one
// struct that carries it across the log, the wire and restore).
type Publication = wal.Record

// TableRows is one table's slice of a row publication.
type TableRows = wal.TableRows

// PublishHook observes every epoch-bumping publish of every owned
// feed, synchronously, under the feed lock (keep it fast; serving
// reads never take that lock, but further writes to the interface
// do). Returning an error fails the triggering submission's ack — the
// replication layer uses that to refuse acks after it has been fenced
// off by a newer owner.
type PublishHook func(id string, p Publication) error

// SetPublishHook installs (or with nil, clears) the publish hook.
func (ing *Ingester) SetPublishHook(h PublishHook) {
	ing.hookMu.Lock()
	ing.hook = h
	ing.hookMu.Unlock()
}

func (ing *Ingester) publishHook() PublishHook {
	ing.hookMu.RLock()
	h := ing.hook
	ing.hookMu.RUnlock()
	return h
}

// land applies one publication's content to the feed and publishes it
// under exactly one epoch bump: a log batch re-mines, row batches
// append to the store and rowid-keyed mutations rebuild their table's
// version; then one hot swap moves the hosted interface onto the
// result, the feed's sequence number advances, p is stamped with the
// (seq, epoch) it landed at and offered to the journal. Caller holds
// f.mu.
//
// landed=false means the feed is exactly as it was: the content was
// refused (err says why) or, with a nil error, a log batch mined
// nothing because every entry failed to parse — no epoch bump, the
// caches stay valid. landed=true with an error means the content is in
// the feed but its publish did not complete (swap or journal failed):
// the ack must fail.
func (ing *Ingester) land(f *feed, p *Publication) (landed bool, err error) {
	fail := func(op string, err error) (bool, error) {
		f.lastError = err.Error()
		return landed, fmt.Errorf("ingest: %s %q: %w", op, f.hosted.ID, err)
	}
	// Row batches are checked as a set before the first one lands, so a
	// publication spanning tables appends all of them or none.
	for _, tr := range p.Rows {
		if err := f.store.ValidateRows(tr.Table, tr.Rows); err != nil {
			return fail("append rows", err)
		}
	}
	iface := f.hosted.Iface()
	if len(p.Entries) > 0 {
		mined, st, err := f.miner.Append(p.Entries)
		f.dropped += uint64(st.ParseErrors)
		if st.LastParseError != "" {
			f.lastError = st.LastParseError
		}
		if err != nil {
			return fail("re-mine", err) // a failed Append made no state changes
		}
		if st.Added == 0 {
			return false, nil
		}
		f.flushes++
		iface, landed = mined, true
	}
	for _, tr := range p.Rows {
		if _, err := f.store.AppendRows(tr.Table, tr.Rows); err != nil {
			return fail("append rows", err)
		}
		f.rowsAppended += uint64(len(tr.Rows))
		landed = true
	}
	if len(p.Rows) > 0 {
		f.rowFlushes++
	}
	for _, tm := range p.Muts {
		if _, err := f.store.MutateRows(tm.Table, tm.Updates, tm.Deletes); err != nil {
			return fail("mutate rows", err)
		}
		f.rowsMutated += uint64(len(tm.Updates) + len(tm.Deletes))
		landed = true
	}
	if len(p.Muts) > 0 {
		f.mutations++
	}
	// A nil catalog keeps the served dataset; only a publication that
	// touched the store moves the interface onto a fresh snapshot.
	var db engine.Catalog
	if len(p.Rows)+len(p.Muts) > 0 {
		db = f.store.Snapshot()
	}
	landed = true
	epoch, err := f.hosted.Swap(iface, db)
	if err != nil {
		return fail("swap", err)
	}
	f.seq++
	p.Seq, p.Epoch = f.seq, epoch
	// Journal before anything else hears of the publish: on the owner a
	// write is durable locally before it fans out, and a follower that
	// restarts replays to its applied position instead of demanding a
	// full re-seed.
	return true, ing.journalLocked(f, *p)
}

// publishLocked is the owner's publish: land the content, then run the
// replication hook — journal first, fan-out second, and an ack implies
// both. A hook error (the owner was fenced off by a newer term) fails
// the submission so the client never holds an ack a promoted follower
// lacks. Caller holds f.mu; the results are land's.
func (ing *Ingester) publishLocked(f *feed, p Publication) (bool, error) {
	landed, err := ing.land(f, &p)
	if !landed || err != nil {
		return landed, err
	}
	if h := ing.publishHook(); h != nil {
		if err := h(f.hosted.ID, p); err != nil {
			f.lastError = err.Error()
			return true, err
		}
	}
	return true, nil
}

// ErrReplicaDiverged reports an Apply that cannot reproduce the
// owner's publication (sequence gap, epoch drift, or content the local
// miner or store rejects): the copy needs a fresh seed. Matched with
// errors.Is.
var ErrReplicaDiverged = errors.New("replica diverged from owner stream")

// Seq returns the interface's current replication sequence number.
func (ing *Ingester) Seq(id string) (uint64, error) {
	f, err := ing.feed(id)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq, nil
}

// PublishBump publishes a bare epoch bump through the replication
// hook — the promotion path uses it so cursors minted against the
// ex-owner expire, with surviving followers bumping in lockstep.
// Returns the interface's epoch and sequence number after the call.
func (ing *Ingester) PublishBump(id string) (uint64, uint64, error) {
	f, err := ing.feed(id)
	if err != nil {
		return 0, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed != nil {
		return 0, 0, f.sealed
	}
	_, err = ing.publishLocked(f, Publication{})
	return f.hosted.Epoch(), f.seq, err
}

// Apply lands one publication that another copy of the interface
// produced — a follower applying its owner's stream, or a restore
// replaying its WAL tail — expected at exactly (p.Seq, p.Epoch). The
// lockstep checks run before anything changes: a sequence gap or an
// epoch the next swap would not reach returns ErrReplicaDiverged with
// the feed untouched. It bypasses the publish hook — replication is one hop deep, never chained — and the
// journal's re-offer of a replayed record is a sequence-idempotent
// no-op.
func (ing *Ingester) Apply(id string, p Publication) error {
	f, err := ing.feed(id)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed != nil {
		return f.sealed
	}
	if p.Seq != f.seq+1 {
		return fmt.Errorf("ingest: %q apply seq %d does not follow local seq %d: %w",
			id, p.Seq, f.seq, ErrReplicaDiverged)
	}
	if next := f.hosted.Epoch() + 1; p.Epoch != next {
		return fmt.Errorf("ingest: %q apply seq %d would land at epoch %d, owner published at %d: %w",
			id, p.Seq, next, p.Epoch, ErrReplicaDiverged)
	}
	f.accepted += uint64(len(p.Entries))
	landed, err := ing.land(f, &p)
	switch {
	case landed:
		return err // nil, or the journal's refusal: the owner re-sends or re-seeds
	case err != nil:
		return fmt.Errorf("%v: %w", err, ErrReplicaDiverged)
	default:
		// The owner bumped its epoch for this batch; a deterministic
		// re-mine that adds nothing here means the copy drifted.
		return fmt.Errorf("ingest: %q apply mined no entries the owner published: %w", id, ErrReplicaDiverged)
	}
}
