// Package wal is the per-interface segmented write-ahead log under
// the durability layer: every acked publication on an interface — a
// re-mined log batch, a row append, a bare epoch bump — is recorded
// here before the ack returns, so a SIGKILL between snapshots loses
// nothing a client was told succeeded. Restore replays the records
// whose sequence numbers exceed what the newest snapshot covers,
// reconstructing the exact acked state.
//
// On disk an interface's log is a directory of segment files, each
// named by the sequence number of its first record. A segment starts
// with an 8-byte magic and holds length-prefixed records:
//
//	[4B big-endian payload length][4B CRC-32 of payload][gob payload]
//
// Each record is independently decodable (a fresh gob stream per
// record), so a torn tail — the crash landed mid-write — is detected
// by length or checksum and truncated away on open; every record
// before it is intact by construction. Corruption anywhere except the
// tail of the newest segment is a loud error, never a silent skip.
//
// Appends are group-committed: every Append blocks until an fsync
// covers its record, but concurrent appenders share one fsync — a
// leader syncs whatever has been written and every waiter whose record
// it covered returns. An acked record is therefore always synced: a
// log's SyncedSeq equals its LastSeq whenever no Append is in flight.
// A failed fsync poisons the log (see Log).
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/store"
)

// TableRows is one table's slice of a row publication.
type TableRows struct {
	Table string
	Rows  [][]engine.Value
}

// Record is one epoch-bumping publish of an interface, and the only
// struct that carries one: the ingestion layer publishes it, the log
// frames it, the replication stream ships it and restore replays it.
// The payload is a re-mined log batch (Entries), a row append (Rows),
// a rowid-keyed mutation set (Muts — the physical form of an
// UPDATE/DELETE, already evaluated against the owner's snapshot), or
// none of them (a bare epoch bump / promotion fence). Seq is the
// per-interface monotone sequence number of the publish; Epoch is the
// interface epoch after it. Applying the same records in the same
// order to the same seed is byte-identical to the owner (the miner is
// deterministic and mutations carry resolved rowids, not predicates),
// so Seq+Epoch double-check lockstep. Muts gob-decodes empty on
// records written before DML existed, so old logs keep replaying.
type Record struct {
	Seq     uint64
	Epoch   uint64
	Entries []qlog.Entry
	Rows    []TableRows
	Muts    []store.TableMutation
}

// Options configure a Manager.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size. Default 4 MiB.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Status is one interface log's health row.
type Status struct {
	// Segments is the number of segment files on disk.
	Segments int `json:"segments"`
	// Bytes is the total size of those segments.
	Bytes int64 `json:"bytes"`
	// LastSeq is the newest recorded sequence number.
	LastSeq uint64 `json:"lastSeq"`
	// SyncedSeq is the newest sequence number an fsync covers. Every
	// Append waits for it, so it equals LastSeq by construction once
	// in-flight appends return.
	SyncedSeq uint64 `json:"syncedSeq"`
	// Appends and Syncs count records written and fsyncs issued since
	// open — their ratio is the group-commit amortization.
	Appends uint64 `json:"appends"`
	Syncs   uint64 `json:"syncs"`
	// Truncated reports that open found and cut a torn tail.
	Truncated bool `json:"truncated,omitempty"`
}

var segMagic = []byte("PIWAL001")

const (
	recHeaderLen  = 8       // 4B length + 4B CRC
	maxRecordSize = 1 << 30 // decode guard against a corrupt length
	segSuffix     = ".seg"
	dirSuffix     = ".wal"
)

// LogDir returns the segment directory for an interface inside dir.
func LogDir(dir, id string) string { return filepath.Join(dir, id+dirSuffix) }

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%020d%s", firstSeq, segSuffix)
}

// Manager owns the per-interface logs under one data directory. It is
// safe for concurrent use; per-interface appends serialize on the
// log's lock (the callers already hold the ingestion feed lock, so in
// practice one interface's appends arrive in order).
type Manager struct {
	dir  string
	opts Options

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool
}

// NewManager returns a manager writing logs under dir.
func NewManager(dir string, opts Options) *Manager {
	return &Manager{dir: dir, opts: opts.withDefaults(), logs: map[string]*Log{}}
}

// Log opens (or creates) the interface's log, replaying nothing. The
// first open after a crash truncates a torn tail.
func (m *Manager) Log(id string) (*Log, error) {
	if !store.ValidID(id) {
		return nil, fmt.Errorf("wal: invalid interface id %q", id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("wal: manager is closed")
	}
	if l, ok := m.logs[id]; ok {
		return l, nil
	}
	l, err := openLog(LogDir(m.dir, id), m.opts)
	if err != nil {
		return nil, err
	}
	m.logs[id] = l
	return l, nil
}

// Append records one publication for the interface (see Log.Append).
func (m *Manager) Append(id string, r Record) error {
	l, err := m.Log(id)
	if err != nil {
		return err
	}
	return l.Append(r)
}

// Truncate drops the interface's segments that a snapshot at seq has
// made redundant (see Log.Truncate). A log that was never opened or
// written is a no-op.
func (m *Manager) Truncate(id string, seq uint64) error {
	l, err := m.Log(id)
	if err != nil {
		return err
	}
	return l.Truncate(seq)
}

// Replay streams the interface's records with Seq > fromSeq, in
// order. A missing log replays nothing.
func (m *Manager) Replay(id string, fromSeq uint64, fn func(Record) error) error {
	l, err := m.Log(id)
	if err != nil {
		return err
	}
	return l.Replay(fromSeq, fn)
}

// Reset discards every record of the interface's log and resumes the
// sequence at seq — the adopt path (a seed frame replaced the local
// state wholesale, so the old tail no longer applies to it).
func (m *Manager) Reset(id string, seq uint64) error {
	l, err := m.Log(id)
	if err != nil {
		return err
	}
	return l.Reset(seq)
}

// Remove deletes the interface's log directory entirely (the
// interface was deleted or dropped).
func (m *Manager) Remove(id string) error {
	if !store.ValidID(id) {
		return fmt.Errorf("wal: invalid interface id %q", id)
	}
	m.mu.Lock()
	l, ok := m.logs[id]
	delete(m.logs, id)
	m.mu.Unlock()
	if ok {
		l.Close()
	}
	if err := os.RemoveAll(LogDir(m.dir, id)); err != nil {
		return fmt.Errorf("wal: remove log %q: %w", id, err)
	}
	return nil
}

// Status reports the interface log's health, false if it was never
// opened in this process.
func (m *Manager) Status(id string) (Status, bool) {
	m.mu.Lock()
	l, ok := m.logs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return l.Status(), true
}

// Close flushes and closes every open log.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	logs := m.logs
	m.logs = map[string]*Log{}
	m.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// segInfo is one sealed (read-only) segment.
type segInfo struct {
	path     string
	firstSeq uint64
	lastSeq  uint64 // 0 when the segment holds no records
	size     int64
}

// fsync makes a segment durable; a variable so tests can fail it.
var fsync = (*os.File).Sync

// Log is one interface's segmented record log.
//
// A failed fsync poisons the log: the kernel may have dropped the pages
// it failed to write, and a retried fsync can then succeed without them
// (Rebello et al., USENIX ATC '20). So the first error is kept, and
// every waiter that fsync covered and every later Append, Truncate,
// Reset and Close return it. Only a reopen — a restart — clears it.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when syncedSeq advances or err is set
	sealed    []segInfo  // read-only predecessors of the active segment
	active    *os.File
	activeSeg segInfo
	lastSeq   uint64 // newest appended seq across the whole log
	syncedSeq uint64 // newest seq an fsync covers
	syncing   bool   // a group-commit leader is mid-fsync
	appends   uint64
	syncs     uint64
	truncated bool  // open cut a torn tail
	err       error // the first failed fsync; the log is poisoned
	closed    bool
}

// openLog opens the segment directory, scanning every segment to
// recover the sequence position and truncating a torn tail on the
// newest one.
func openLog(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create log dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s has a malformed name", filepath.Join(dir, name))
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })

	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	for i := range segs {
		tail := i == len(segs)-1
		last, size, cut, err := scanSegment(segs[i].path, tail)
		if err != nil {
			return nil, err
		}
		segs[i].lastSeq = last
		segs[i].size = size
		if cut {
			l.truncated = true
		}
		if last > l.lastSeq {
			l.lastSeq = last
		}
	}
	l.syncedSeq = l.lastSeq // everything on disk at open is as durable as it gets

	// The newest segment (or a fresh one) becomes the active appender.
	if len(segs) > 0 {
		l.sealed = segs[:len(segs)-1]
		l.activeSeg = segs[len(segs)-1]
		f, err := os.OpenFile(l.activeSeg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open active segment: %w", err)
		}
		l.active = f
	} else if err := l.startSegmentLocked(1); err != nil {
		return nil, err
	}
	return l, nil
}

// scanSegment walks one segment's records, returning the last seq and
// the byte offset after the last good record. A torn or corrupt
// record at the tail is truncated away when tail is set (the crash
// wrote it, nobody was acked on it — see Append's sync discipline);
// anywhere else it is an error.
func scanSegment(path string, tail bool) (lastSeq uint64, good int64, cut bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: read segment: %w", err)
	}
	bad := func(off int64, reason string) (uint64, int64, bool, error) {
		if !tail {
			return 0, 0, false, fmt.Errorf("wal: segment %s is corrupt at offset %d (%s) and is not the newest segment; refusing to serve past acked state", path, off, reason)
		}
		if err := truncateSegment(path, off); err != nil {
			return 0, 0, false, err
		}
		return lastSeq, off, true, nil
	}
	if len(raw) < len(segMagic) {
		return bad(0, "short magic")
	}
	if !bytes.Equal(raw[:len(segMagic)], segMagic) {
		return 0, 0, false, fmt.Errorf("wal: %s is not a WAL segment (bad magic)", path)
	}
	off := int64(len(segMagic))
	for off < int64(len(raw)) {
		rec, n, err := DecodeRecord(raw[off:])
		if err != nil {
			return bad(off, err.Error())
		}
		lastSeq = rec.Seq
		off += n
	}
	return lastSeq, off, false, nil
}

// truncateSegment cuts a segment at off (a magic-only file when off
// predates the header) and fsyncs the result.
func truncateSegment(path string, off int64) error {
	if off < int64(len(segMagic)) {
		// Not even the magic survived: rewrite the header so the file is
		// a valid empty segment again.
		if err := os.WriteFile(path, segMagic, 0o644); err != nil {
			return fmt.Errorf("wal: rewrite torn segment %s: %w", path, err)
		}
	} else if err := os.Truncate(path, off); err != nil {
		return fmt.Errorf("wal: truncate torn segment %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: sync torn segment %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync torn segment %s: %w", path, err)
	}
	return nil
}

// startSegmentLocked creates and syncs a fresh active segment named
// by the seq its first record will carry. Caller holds l.mu.
func (l *Log) startSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(l.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := store.SyncDir(l.dir); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active = f
	l.activeSeg = segInfo{path: path, firstSeq: firstSeq, size: int64(len(segMagic))}
	return nil
}

// Append records one publication and blocks until an fsync covers it.
// Records must arrive in sequence order; a record at or below the last
// recorded seq is acknowledged without a write (idempotent: the restore
// path re-drives acked publications through the same code path that
// logged them), and a gap is an error (a publication was lost between
// the feed and the log, so acking it would lie).
func (l *Log) Append(r Record) error {
	frame, err := EncodeRecord(r)
	if err != nil {
		return err
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if r.Seq <= l.lastSeq {
		return nil
	}
	if l.lastSeq != 0 && r.Seq != l.lastSeq+1 {
		return fmt.Errorf("wal: append seq %d does not follow logged seq %d", r.Seq, l.lastSeq)
	}
	// Rotate a full active segment before the write, sealing it durably.
	if l.activeSeg.size >= l.opts.SegmentBytes && l.activeSeg.lastSeq > 0 {
		if err := l.rotateLocked(r.Seq); err != nil {
			return err
		}
	}
	if _, err := l.active.Write(frame); err != nil {
		// The write may have landed partially; the tail scan on the next
		// open truncates it. Nothing was acked on it.
		return fmt.Errorf("wal: append seq %d: %w", r.Seq, err)
	}
	l.activeSeg.size += int64(len(frame))
	if l.activeSeg.lastSeq == 0 && l.activeSeg.firstSeq != r.Seq {
		// First record of a pre-created (or reset) segment: the file name
		// pins the first seq, keep the in-memory view consistent.
		l.activeSeg.firstSeq = r.Seq
	}
	l.activeSeg.lastSeq = r.Seq
	l.lastSeq = r.Seq
	l.appends++
	mxAppends.Inc()
	err = l.waitSyncedLocked(r.Seq)
	mxAppendDur.Observe(time.Since(start))
	return err
}

// usableLocked reports why the log takes no more writes: it is
// poisoned or closed. Caller holds l.mu.
func (l *Log) usableLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return errors.New("wal: log is closed")
	}
	return nil
}

// poisonLocked keeps the log's first fsync error (see Log) and wakes
// every waiter to return it. Caller holds l.mu.
func (l *Log) poisonLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	return l.err
}

// waitSyncedLocked blocks until an fsync covers seq, electing this
// goroutine as the group-commit leader when none is mid-flight.
// Caller holds l.mu; returns with it held.
func (l *Log) waitSyncedLocked(seq uint64) error {
	for l.syncedSeq < seq {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return fmt.Errorf("wal: log closed before seq %d was synced", seq)
		}
		if l.syncing {
			// A leader's fsync is in flight; it may or may not cover seq —
			// wait for its broadcast and re-check.
			l.cond.Wait()
			continue
		}
		l.syncing = true
		covered := l.lastSeq // everything written so far rides this fsync
		batch := covered - l.syncedSeq
		f := l.active
		l.mu.Unlock()
		fstart := time.Now()
		err := fsync(f)
		mxFsyncDur.Observe(time.Since(fstart))
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			return l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
		}
		l.syncs++
		mxSyncs.Inc()
		mxBatch.ObserveN(int64(batch))
		if covered > l.syncedSeq {
			l.syncedSeq = covered
		}
		l.cond.Broadcast()
	}
	return nil
}

// excludeSyncLocked waits out an in-flight group-commit fsync so the
// caller can safely close or replace the active file, and returns the
// poison that fsync may have left. Caller holds l.mu.
func (l *Log) excludeSyncLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	return l.err
}

// rotateLocked seals the active segment (fsync + close, so sealed
// segments are always fully durable) and starts a fresh one whose
// first record will be nextSeq. Caller holds l.mu.
func (l *Log) rotateLocked(nextSeq uint64) error {
	if err := l.excludeSyncLocked(); err != nil {
		return err
	}
	if err := fsync(l.active); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: seal segment: %w", err))
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	if l.activeSeg.lastSeq > l.syncedSeq {
		l.syncedSeq = l.activeSeg.lastSeq
		l.cond.Broadcast()
	}
	l.syncs++
	mxSyncs.Inc()
	l.sealed = append(l.sealed, l.activeSeg)
	return l.startSegmentLocked(nextSeq)
}

// Truncate deletes segments whose records a snapshot at seq has made
// redundant: sealed segments entirely at or below seq go away, and an
// active segment entirely covered is replaced by a fresh empty one.
// The log's sequence position is unaffected — appends continue from
// lastSeq.
func (l *Log) Truncate(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	var keep []segInfo
	for _, s := range l.sealed {
		if s.lastSeq <= seq {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: drop segment: %w", err)
			}
			continue
		}
		keep = append(keep, s)
	}
	l.sealed = keep
	if l.activeSeg.lastSeq > 0 && l.activeSeg.lastSeq <= seq {
		if err := l.excludeSyncLocked(); err != nil {
			return err
		}
		if err := fsync(l.active); err != nil {
			return l.poisonLocked(fmt.Errorf("wal: truncate: %w", err))
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		old := l.activeSeg.path
		if err := l.startSegmentLocked(l.lastSeq + 1); err != nil {
			return err
		}
		if err := os.Remove(old); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: drop segment: %w", err)
		}
	}
	if err := store.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	return nil
}

// Reset discards every record and resumes the sequence at seq (the
// next append must carry seq+1) — the adopt path after a seed frame
// replaced local state wholesale.
func (l *Log) Reset(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	for _, s := range l.sealed {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: drop segment: %w", err)
		}
	}
	l.sealed = nil
	if err := l.excludeSyncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := os.Remove(l.activeSeg.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.lastSeq = seq
	l.syncedSeq = seq
	return l.startSegmentLocked(seq + 1)
}

// Replay streams every record with Seq > fromSeq, in order, to fn. It
// is safe on a live log: each segment is read only up to the size it
// had under the lock, which always ends on a frame boundary, so a
// concurrent Append's half-written frame is never seen.
func (l *Log) Replay(fromSeq uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append(append([]segInfo{}, l.sealed...), l.activeSeg)
	l.mu.Unlock()
	for _, s := range segs {
		raw, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if len(raw) < len(segMagic) || !bytes.Equal(raw[:len(segMagic)], segMagic) {
			return fmt.Errorf("wal: replay: %s is not a WAL segment", s.path)
		}
		if int64(len(raw)) > s.size {
			raw = raw[:s.size]
		}
		off := int64(len(segMagic))
		for off < int64(len(raw)) {
			rec, n, err := DecodeRecord(raw[off:])
			if err != nil {
				return fmt.Errorf("wal: replay %s at offset %d: %w", s.path, off, err)
			}
			off += n
			if rec.Seq <= fromSeq {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Status reports the log's position and group-commit counters.
func (l *Log) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Status{
		Segments:  len(l.sealed) + 1,
		Bytes:     l.activeSeg.size,
		LastSeq:   l.lastSeq,
		SyncedSeq: l.syncedSeq,
		Appends:   l.appends,
		Syncs:     l.syncs,
		Truncated: l.truncated,
	}
	for _, s := range l.sealed {
		st.Bytes += s.size
	}
	return st
}

// Close syncs outstanding records and closes the active segment. A
// poisoned log closes too, and returns its poison.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	// Once every record is synced no leader is mid-fsync; a poisoned
	// log has none either, so the active file is safe to close.
	err := l.waitSyncedLocked(l.lastSeq)
	if err == nil {
		err = l.err
	}
	l.closed = true
	l.cond.Broadcast()
	if cerr := l.active.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("wal: close: %w", cerr)
	}
	return err
}

// EncodeRecord frames one record: length, checksum, gob payload. A
// fresh encoder per record keeps records independently decodable. The
// frame is both a log record and the body of a streamed replication
// publication.
func EncodeRecord(r Record) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&r); err != nil {
		return nil, fmt.Errorf("wal: encode record seq %d: %w", r.Seq, err)
	}
	frame := make([]byte, recHeaderLen+payload.Len())
	binary.BigEndian.PutUint32(frame[0:4], uint32(payload.Len()))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[recHeaderLen:], payload.Bytes())
	return frame, nil
}

// DecodeRecord decodes one framed record from the head of raw,
// returning the frame's total length. The error names what failed —
// header, length, payload, checksum or gob — and doubles as the reason
// an open gives for cutting a torn tail.
func DecodeRecord(raw []byte) (Record, int64, error) {
	var rec Record
	if len(raw) < recHeaderLen {
		return Record{}, 0, errors.New("short record header")
	}
	size := binary.BigEndian.Uint32(raw[0:4])
	if size == 0 || size > maxRecordSize {
		return Record{}, 0, errors.New("implausible record length")
	}
	if len(raw) < recHeaderLen+int(size) {
		return Record{}, 0, errors.New("short record payload")
	}
	payload := raw[recHeaderLen : recHeaderLen+int(size)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[4:8]) {
		return Record{}, 0, errors.New("record failed checksum")
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return Record{}, 0, fmt.Errorf("record failed decode: %w", err)
	}
	return rec, recHeaderLen + int64(size), nil
}
