// Package ingest is the streaming half of the pipeline: it accepts
// query-log entries for interfaces that are already being served,
// re-mines incrementally on every submission (via core.Miner,
// which reuses the interaction graph and the mapper's partition state
// so an append costs O(K·window) tree comparisons instead of a full
// O(n·window) re-mine) and hot-swaps the result into the serving
// registry under a bumped epoch. The batch pipeline turns a frozen log
// into a dashboard; this package keeps the dashboard improving while
// users keep querying — the "logs as the system API" premise applied
// to a log that is still being written.
//
// Entry points: Submit (called directly, or by the server's
// POST /v1/interfaces/{id}/log) and file tailing (Tail, which
// follows a growing log file the way tail -f does). An Ingester
// implements api.Ingestor, so wiring it into a server enables the
// write endpoints and the /healthz ingest rows.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// Options configure an Ingester. There is nothing left to configure:
// every submission lands, journals and replicates one publication
// before it returns, so no batch fills and no buffer waits for a
// timer. BatchSize and FlushInterval are accepted and ignored, kept
// only so callers written against the buffered feed still compile.
type Options struct {
	BatchSize     int           // ignored
	FlushInterval time.Duration // ignored
}

// Input bounds. A submission larger than maxPublishEntries lands as
// several publications of at most that many entries, in order; a rows
// request larger than maxRowsPerRequest is rejected whole, so one
// request can never grow a publication without bound.
const (
	maxPublishEntries = 4096
	maxRowsPerRequest = 65536
)

// feed is one interface's ingestion state: the retained miner, the
// store and the counters. feed.mu serializes mining and
// swapping for the interface; query traffic never takes it.
type feed struct {
	hosted *api.Hosted
	mu     sync.Mutex
	miner  *core.Miner
	store  *store.Store

	// sealed is non-nil once the feed handed its interface off (Handoff):
	// every submission that acquires mu after the seal is refused with it
	// — the moved error naming the new owner — instead of being
	// acknowledged into a copy that is about to be dropped.
	sealed error

	// seq counts the feed's epoch-bumping publishes — the per-interface
	// monotone sequence number the replication stream rides on
	// (replicate.go). Seeded snapshots resume it.
	seq uint64

	accepted     uint64
	dropped      uint64
	flushes      uint64
	rowsAppended uint64
	rowFlushes   uint64
	rowsMutated  uint64
	mutations    uint64
	lastError    string
}

// Ingester routes submitted log entries to per-interface feeds. It is
// safe for concurrent use.
type Ingester struct {
	reg *api.Registry

	mu    sync.RWMutex
	feeds map[string]*feed

	// hook, when set, observes every epoch-bumping publish (see
	// replicate.go), and journal, when set, makes each one durable
	// before its ack (see journal.go). Guarded separately from mu so
	// installing them never contends with feed routing.
	hookMu  sync.RWMutex
	hook    PublishHook
	journal Journal
}

// New returns an ingester over the registry. opts is ignored (see
// Options).
func New(reg *api.Registry, _ Options) *Ingester {
	return &Ingester{reg: reg, feeds: make(map[string]*feed)}
}

// Host mines the log, registers the interface for serving AND attaches
// a live feed, so subsequent Submit calls evolve it. This is the
// live-path counterpart of mining once and calling Registry.Add. The
// dataset is wrapped in a copy-on-write store (internal/store): the
// interface serves immutable store snapshots, and SubmitRows grows the
// dataset under the same epoch discipline that Submit applies to the
// interface. The caller must not mutate db after handing it over.
//
// Snapshots do not record opts: an interface that is restored from
// disk, migrated to another shard or seeded onto a follower is re-mined
// from its saved log with core.DefaultOptions.
func (ing *Ingester) Host(id, title string, log *qlog.Log, db *engine.DB, opts core.Options) (*api.Hosted, error) {
	m, err := core.NewMiner(log, opts)
	if err != nil {
		return nil, fmt.Errorf("ingest: mine %q: %w", id, err)
	}
	return ing.host(id, title, m, store.FromDB(db), 1, 0)
}

// host registers a mined interface backed by a store at the given
// starting epoch and replication sequence — shared by Host (fresh,
// epoch 1, seq 0) and the snapshot paths (saved epoch/seq).
func (ing *Ingester) host(id, title string, m *core.Miner, st *store.Store, epoch, seq uint64) (*api.Hosted, error) {
	h, err := ing.reg.AddAt(id, title, m.Interface(), st.Snapshot(), epoch)
	if err != nil {
		return nil, err
	}
	f := &feed{hosted: h, miner: m, store: st, seq: seq}
	ing.mu.Lock()
	ing.feeds[id] = f
	ing.mu.Unlock()
	registerFeedMetrics(id, f)
	return h, nil
}

// PreparedSnapshot is a snapshot rebuilt and re-mined but not yet
// hosted — the fallible half of HostSnapshot, split out so a caller
// replacing an existing copy (a follower taking a fresh seed) can
// finish every failure-prone step before tearing the old copy down.
type PreparedSnapshot struct {
	snap  *store.Snapshot
	miner *core.Miner
	st    *store.Store
}

// PrepareSnapshot rebuilds a snapshot into a hostable state with no
// side effects on the ingester or registry: the store loads the saved
// tables, funcs (optional) re-attaches table-valued functions a
// snapshot cannot carry, and the saved log re-mines, with
// core.DefaultOptions, to exactly the interface that was serving.
func (ing *Ingester) PrepareSnapshot(snap *store.Snapshot, funcs func(id string, st *store.Store)) (*PreparedSnapshot, error) {
	st, err := snap.Restore()
	if err != nil {
		return nil, fmt.Errorf("ingest: host snapshot %q: %w", snap.ID, err)
	}
	if funcs != nil {
		funcs(snap.ID, st)
	}
	m, err := core.NewMiner(snap.RestoredLog(), core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("ingest: host snapshot %q: mine saved log: %w", snap.ID, err)
	}
	return &PreparedSnapshot{snap: snap, miner: m, st: st}, nil
}

// HostPrepared hosts a prepared snapshot at the given epoch with a
// live feed attached. The feed resumes the snapshot's replication
// sequence, so a seeded follower continues the owner's stream where
// the seed frame left off.
func (ing *Ingester) HostPrepared(p *PreparedSnapshot, epoch uint64) (*api.Hosted, error) {
	return ing.host(p.snap.ID, p.snap.Title, p.miner, p.st, epoch, p.snap.Seq)
}

// HostSnapshot is PrepareSnapshot + HostPrepared: rebuild and host an
// interface from a snapshot at the given epoch — the restore-on-boot
// path, which hosts at the saved epoch.
func (ing *Ingester) HostSnapshot(snap *store.Snapshot, funcs func(id string, st *store.Store), epoch uint64) (*api.Hosted, error) {
	p, err := ing.PrepareSnapshot(snap, funcs)
	if err != nil {
		return nil, err
	}
	return ing.HostPrepared(p, epoch)
}

// Capture freezes one live feed's durable state into a snapshot:
// (accumulated log, published tables, epochs). The capture shares only
// immutable data — a log copy and published table versions — so
// callers can serialize it without blocking ingestion or serving.
// Every acked write is in it: acks follow their publish.
func (ing *Ingester) Capture(id string) (*store.Snapshot, error) {
	f, err := ing.feed(id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &store.Snapshot{
		ID:        f.hosted.ID,
		Title:     f.hosted.Title,
		Epoch:     f.hosted.Epoch(),
		DataEpoch: f.store.Epoch(),
		Seq:       f.seq,
		Log:       f.miner.Log().Entries,
		Tables:    f.store.CaptureTables(),
	}, nil
}

// Detach removes the interface's live feed and seals it, so further
// submissions are rejected instead of evolving an interface that is no
// longer hosted — including one that resolved the feed before the
// removal and was waiting for its lock, which would otherwise publish
// into the detached copy and ack a write nothing serves. Implements
// api.Ingestor (the DeleteInterface path).
func (ing *Ingester) Detach(id string) {
	ing.mu.Lock()
	f, ok := ing.feeds[id]
	delete(ing.feeds, id)
	ing.mu.Unlock()
	if !ok {
		return
	}
	f.mu.Lock()
	if f.sealed == nil {
		f.sealed = errNoFeed(id)
	}
	f.mu.Unlock()
}

// Handoff is the owner's half of a planned ownership change
// (replica.Manager.Handoff): holding the feed lock, it runs commit
// with the sequence number the feed reached. Every write path
// publishes under that lock before it acks, so a write either landed
// before commit ran — it is part of the stream commit hands over — or
// it waits behind it. Only when commit succeeds is the feed sealed with
// the moved error: waiting and later submissions are refused with it
// (the request was not processed, the client re-issues it at the new
// owner), never acknowledged into a copy that no longer owns the
// interface. On any error nothing is sealed and the feed keeps taking
// writes. commit runs under the feed lock: it must not re-enter this
// feed (Seq, Capture).
func (ing *Ingester) Handoff(id string, moved error, commit func(seq uint64) error) error {
	f, err := ing.feed(id)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed != nil {
		return f.sealed
	}
	if err := commit(f.seq); err != nil {
		return err
	}
	f.sealed = moved
	return nil
}

// ErrNoFeed reports an interface with no live feed (hosted without
// ingestion, or already detached). Matched with errors.Is.
var ErrNoFeed = errors.New("no live feed")

// feed resolves an interface's live feed. A miss is also a structured
// not_found: a write that raced a drop (Detach runs before the registry
// entry goes) answers like one that arrived after it — which a shard
// turns into moved once the tombstone says where the interface went.
func (ing *Ingester) feed(id string) (*feed, error) {
	ing.mu.RLock()
	f, ok := ing.feeds[id]
	ing.mu.RUnlock()
	if !ok {
		return nil, errNoFeed(id)
	}
	return f, nil
}

func errNoFeed(id string) error {
	notFound := api.Errf(api.CodeNotFound, http.StatusNotFound, "ingest: interface %q has no feed here", id)
	return fmt.Errorf("%w: %w", notFound, ErrNoFeed)
}

// Submit re-mines the entries into the interface and publishes the
// result — hot swap, journal, replication — before it returns, so the
// ack's epoch already serves them. A submission larger than
// maxPublishEntries lands as consecutive publications; one that fails
// stops there, with Accepted telling how many entries landed before
// the error. Entries that fail to parse are counted as Dropped; a
// batch of nothing else bumps no epoch. Implements api.Ingestor.
func (ing *Ingester) Submit(id string, entries []qlog.Entry) (api.IngestAck, error) {
	f, err := ing.feed(id)
	if err != nil {
		return api.IngestAck{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sealed != nil {
		return api.IngestAck{}, f.sealed
	}
	dropped := f.dropped
	ack := api.IngestAck{Flushed: true}
	for len(entries) > 0 {
		batch := entries[:min(maxPublishEntries, len(entries))]
		entries = entries[len(batch):]
		landed, perr := ing.publishLocked(f, Publication{Entries: batch})
		if landed || perr == nil {
			f.accepted += uint64(len(batch))
			ack.Accepted += len(batch)
		}
		if perr != nil {
			err = perr
			break
		}
	}
	ack.Dropped = int(f.dropped - dropped)
	ack.Epoch = f.hosted.Epoch()
	return ack, err
}

// Run blocks until ctx is done. Every submission publishes before it
// returns, so a background flush loop has nothing to do; Run is kept
// only so callers that start one still compile.
func (ing *Ingester) Run(ctx context.Context) { <-ctx.Done() }

// IngestStatus implements api.Ingestor for /healthz.
func (ing *Ingester) IngestStatus(id string) (api.IngestStatus, bool) {
	ing.mu.RLock()
	f, ok := ing.feeds[id]
	ing.mu.RUnlock()
	if !ok {
		return api.IngestStatus{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return api.IngestStatus{
		Accepted:     f.accepted,
		Dropped:      f.dropped,
		Flushes:      f.flushes,
		RowsAppended: f.rowsAppended,
		RowFlushes:   f.rowFlushes,
		RowsMutated:  f.rowsMutated,
		Mutations:    f.mutations,
		LastError:    f.lastError,
	}, true
}
