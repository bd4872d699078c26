package ingest

// Journal is the durability half of the publish contract, the way
// PublishHook is the replication half: every epoch-bumping publish —
// a re-mined log batch, a row append, a mutation, a bare epoch bump —
// is offered to the journal before the ack returns, under the same
// per-feed lock the publish happened under. A journal error fails the
// ack: a client never holds an acknowledgment for a write the log
// could lose.
//
// The journal fires on BOTH sides of replication: on the owner
// (before the replication hook, so a write is durable locally before
// it fans out) and on followers applying the owner's stream (so a
// restarted follower replays to its applied position instead of
// demanding a full re-seed). Implementations must be idempotent on
// sequence numbers — restore-time replay drives the same Apply that
// journals live traffic, and re-offering an already-logged
// sequence must be a no-op, not a duplicate record.
type Journal interface {
	Append(id string, p Publication) error
}

// SetJournal installs (or with nil, clears) the durability journal.
func (ing *Ingester) SetJournal(j Journal) {
	ing.hookMu.Lock()
	ing.journal = j
	ing.hookMu.Unlock()
}

func (ing *Ingester) journalFor() Journal {
	ing.hookMu.RLock()
	j := ing.journal
	ing.hookMu.RUnlock()
	return j
}

// journalLocked offers one publication to the journal. Caller holds
// f.mu and has already published the swap; an error fails the
// triggering ack.
func (ing *Ingester) journalLocked(f *feed, p Publication) error {
	j := ing.journalFor()
	if j == nil {
		return nil
	}
	if err := j.Append(f.hosted.ID, p); err != nil {
		f.lastError = err.Error()
		return err
	}
	return nil
}
