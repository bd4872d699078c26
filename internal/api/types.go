package api

import (
	"strings"

	"repro/internal/engine"
	"repro/internal/qlog"
)

// This file is the typed v1 operation contract: the request and
// response shapes every transport (internal/server over HTTP,
// pi/client from the consumer side) exchanges with the Service.
// Field names are the JSON contract; see API.md.

// InterfaceSummary is one row of ListInterfaces.
type InterfaceSummary struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Widgets int     `json:"widgets"`
	Cost    float64 `json:"cost"`
	Queries uint64  `json:"queries"`
	Epoch   uint64  `json:"epoch"`
}

// WidgetInfo describes one widget of GetInterface.
type WidgetInfo struct {
	Path    string   `json:"path"`
	Kind    string   `json:"kind"`
	Label   string   `json:"label"`
	Options []string `json:"options"`
	Absent  bool     `json:"absent,omitempty"`
	Numeric bool     `json:"numeric,omitempty"`
	// Min/Max are meaningful only when Numeric; no omitempty, since 0
	// is a legitimate bound.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// InterfaceDetail is the body of GetInterface.
type InterfaceDetail struct {
	ID         string       `json:"id"`
	Title      string       `json:"title"`
	Epoch      uint64       `json:"epoch"`
	InitialSQL string       `json:"initialSql"`
	Widgets    []WidgetInfo `json:"widgets"`
}

// QueryRequest is the body of Query: the widget bindings plus result
// pagination. Limit caps the rows returned (0 means the server
// default; the server also enforces a hard cap). Cursor resumes a
// previous truncated response at its NextCursor.
type QueryRequest struct {
	Widgets []WidgetBinding `json:"widgets"`
	Limit   int             `json:"limit,omitempty"`
	Cursor  string          `json:"cursor,omitempty"`
}

// QueryResponse is the body of a successful query: the bound SQL, one
// page of the result relation, the epoch of the interface that
// answered, and whether result and plan came from their caches.
// RowCount is the size of the full result; Rows holds the requested
// page ([Offset, Offset+len(Rows))). When Truncated, NextCursor
// resumes at the next page (valid only for the same epoch).
type QueryResponse struct {
	SQL        string     `json:"sql"`
	Epoch      uint64     `json:"epoch"`
	Cols       []string   `json:"cols"`
	Rows       [][]any    `json:"rows"`
	RowCount   int        `json:"rowCount"`
	Offset     int        `json:"offset,omitempty"`
	Truncated  bool       `json:"truncated,omitempty"`
	NextCursor string     `json:"nextCursor,omitempty"`
	Cache      string     `json:"cache"` // "hit" | "miss"
	Plan       string     `json:"plan"`  // "hit" | "miss"
	CacheStats CacheStats `json:"cacheStats"`
}

// LogRequest is the JSON body of IngestLog (the HTTP endpoint also
// accepts text/plain statements in the qlog text format).
type LogRequest struct {
	Entries []LogEntry `json:"entries"`
}

// LogEntry is one submitted query-log entry.
type LogEntry struct {
	SQL    string `json:"sql"`
	Client string `json:"client,omitempty"`
}

// QlogEntries converts the request to qlog entries, dropping blank SQL.
func (r *LogRequest) QlogEntries() []qlog.Entry {
	out := make([]qlog.Entry, 0, len(r.Entries))
	for _, e := range r.Entries {
		if strings.TrimSpace(e.SQL) == "" {
			continue
		}
		out = append(out, qlog.Entry{SQL: e.SQL, Client: e.Client})
	}
	return out
}

// EpochResponse is the body of Epoch (pages poll it to detect swaps).
type EpochResponse struct {
	Epoch uint64 `json:"epoch"`
}

// DeleteAck confirms a DeleteInterface call.
type DeleteAck struct {
	ID      string `json:"id"`
	Deleted bool   `json:"deleted"`
}

// RowsRequest is the body of AppendRows: new rows for one table of the
// interface's dataset. Values are JSON scalars (number, string, bool,
// null) positionally matching the table's columns.
type RowsRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
}

// RowsAck reports what happened to one AppendRows call. DataEpoch is
// the storage layer's version counter; Epoch is the interface's
// serving epoch (bumped when the appended rows were hot-swapped in, so
// post-append queries never see pre-append cached results). RowCount
// is the table's total rows after the call's publish.
type RowsAck struct {
	Table     string `json:"table"`
	Accepted  int    `json:"accepted"`           // rows this call published
	Buffered  int    `json:"buffered"`           // always 0: nothing waits after an ack; kept for wire compatibility
	Flushed   bool   `json:"flushed"`            // always true on success: the ack follows the publish; kept for wire compatibility
	Epoch     uint64 `json:"epoch"`              // interface epoch after the call
	DataEpoch uint64 `json:"dataEpoch"`          // store version after the call
	RowCount  int    `json:"rowCount,omitempty"` // table rows visible to queries
}

// MutateRequest is the body of MutateRows: one UPDATE or DELETE
// statement evaluated against the interface's current snapshot. When
// IfEpoch is nonzero the mutation is conditional — it is rejected with
// mutation_conflict unless the store's data epoch still equals IfEpoch,
// giving clients optimistic concurrency
// over read-modify-write cycles.
type MutateRequest struct {
	SQL     string `json:"sql"`
	IfEpoch uint64 `json:"ifEpoch,omitempty"`
}

// MutateAck reports what happened to one MutateRows call. Matched is
// how many visible rows the predicate selected; Updated/Deleted how
// many of them the publish replaced or removed (zero matches ack
// without publishing, leaving the epochs untouched).
type MutateAck struct {
	Table     string `json:"table,omitempty"`
	Matched   int    `json:"matched"`
	Updated   int    `json:"updated,omitempty"`
	Deleted   int    `json:"deleted,omitempty"`
	Epoch     uint64 `json:"epoch"`     // interface epoch after the call
	DataEpoch uint64 `json:"dataEpoch"` // store version after the call
}

// SnapshotInterface is one interface's row in a snapshot result.
type SnapshotInterface struct {
	ID         string `json:"id"`
	Epoch      uint64 `json:"epoch"`
	DataEpoch  uint64 `json:"dataEpoch"`
	LogEntries int    `json:"logEntries"`
	Rows       int    `json:"rows"` // dataset rows across all tables
	Bytes      int64  `json:"bytes"`
}

// SnapshotResult is the body of the Snapshot operation: what was
// persisted, where, and how long it took.
type SnapshotResult struct {
	Dir        string              `json:"dir"`
	Interfaces []SnapshotInterface `json:"interfaces"`
	ElapsedMS  float64             `json:"elapsedMs"`
}

// RestoreResult reports what a restore-on-construct brought back.
type RestoreResult struct {
	Dir        string              `json:"dir"`
	Interfaces []SnapshotInterface `json:"interfaces"`
}

// Ingestor is the live-write seam: everything that changes a hosted
// interface after it was mined goes through it. internal/ingest
// implements it; the service stays decoupled from the mining machinery
// and the versioned store.
type Ingestor interface {
	// Submit re-mines query-log entries into the interface and
	// publishes the result before it returns: the ack's epoch serves
	// them.
	Submit(id string, entries []qlog.Entry) (IngestAck, error)
	// SubmitRows publishes new dataset rows before it returns, under
	// the same hot-swap discipline as interface re-mining — the bumped
	// epoch makes every pre-append cached result unreachable.
	SubmitRows(id, table string, rows [][]engine.Value) (RowsAck, error)
	// SubmitMutation evaluates one UPDATE or DELETE statement against
	// the interface's current snapshot and publishes the resulting
	// rowid-keyed changes under a bumped epoch.
	SubmitMutation(id, sql string, ifEpoch uint64) (MutateAck, error)
	// Detach drops the interface's live feed: DeleteInterface calls it
	// so an unhosted interface stops accepting submissions instead of
	// leaking its feed.
	Detach(id string)
	// IngestStatus surfaces per-interface ingestion counters in Health.
	IngestStatus(id string) (IngestStatus, bool)
}

// Persister is the durable snapshot/restore seam the service exposes
// through Snapshot and restore-on-construct; internal/ingest
// implements it over the data dir.
type Persister interface {
	// SaveAll persists every hosted interface's (log, dataset, epoch);
	// Restore rebuilds hosted interfaces from the newest snapshot files.
	SaveAll() (*SnapshotResult, error)
	Restore() (*RestoreResult, error)
	// RemoveSnapshot deletes an unhosted interface's durable state, so
	// DeleteInterface is not undone by the next boot.
	RemoveSnapshot(id string) error
	// WALStatus reports the interface's write-ahead-log position for
	// Health (false when it has none), so operators can watch
	// durability lag.
	WALStatus(id string) (*WALInfo, bool)
}

// WALInfo is one interface's write-ahead-log row in Health.
type WALInfo struct {
	// Segments and Bytes describe the on-disk log (Bytes covers the
	// active segment; sealed segments rotate out at the configured size).
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// LastSeq is the newest logged publication; SyncedSeq is the newest
	// one fsynced. Every ack waits for its fsync, so the two are equal
	// once in-flight writes return; a failed fsync leaves SyncedSeq
	// behind, and the writes past it answered wal_failed.
	LastSeq   uint64 `json:"lastSeq"`
	SyncedSeq uint64 `json:"syncedSeq"`
	// Lag counts acked publications the base snapshot does not cover —
	// what a crash right now would replay from the log.
	Lag uint64 `json:"lag"`
	// Truncated reports that a torn tail (a record cut mid-write by a
	// crash) was dropped when the log was opened. The torn record was
	// never acked, so this is informational, not data loss.
	Truncated bool `json:"truncated,omitempty"`
}

// IngestStatus is one interface's ingestion counters.
type IngestStatus struct {
	Buffered     int    `json:"buffered"` // always 0: nothing waits after an ack; kept for wire compatibility
	Accepted     uint64 `json:"accepted"`
	Dropped      uint64 `json:"dropped"`
	Flushes      uint64 `json:"flushes"`
	FullRemines  uint64 `json:"fullRemines"` // always 0: the miner has no fallback; survives only until a benchmark PR can drop it
	RowsAppended uint64 `json:"rowsAppended,omitempty"`
	RowsBuffered int    `json:"rowsBuffered,omitempty"` // always 0, as Buffered
	RowFlushes   uint64 `json:"rowFlushes,omitempty"`
	RowsMutated  uint64 `json:"rowsMutated,omitempty"`
	Mutations    uint64 `json:"mutations,omitempty"`
	LastError    string `json:"lastError,omitempty"`
}

// IngestAck reports what happened to a Submit call.
type IngestAck struct {
	Accepted int    `json:"accepted"` // entries this call landed
	Buffered int    `json:"buffered"` // always 0: nothing waits after an ack; kept for wire compatibility
	Flushed  bool   `json:"flushed"`  // always true: the ack follows the re-mine; kept for wire compatibility
	Dropped  int    `json:"dropped,omitempty"`
	Epoch    uint64 `json:"epoch"` // interface epoch after the call
}

// HealthInterface is one interface's health row.
type HealthInterface struct {
	ID           string        `json:"id"`
	Epoch        uint64        `json:"epoch"`
	Widgets      int           `json:"widgets"`
	Queries      uint64        `json:"queries"`
	CacheHitRate float64       `json:"cacheHitRate"`
	PlanHitRate  float64       `json:"planHitRate"`
	Ingest       *IngestStatus `json:"ingest,omitempty"`
	// Replication is present on replicated deployments: the interface's
	// role on this shard and its position in the replication stream.
	Replication *ReplicationInfo `json:"replication,omitempty"`
	// WAL is present when the server persists (pi-serve -data-dir): the
	// interface's log position and durability lag.
	WAL *WALInfo `json:"wal,omitempty"`
}

// Replication roles, as reported in ReplicationInfo.Role. An interface
// hosted on a shard with no replication manager (or one the manager
// has no explicit state for) is implicitly an owner.
const (
	RoleOwner    = "owner"
	RoleFollower = "follower"
)

// ReplicationInfo is one interface's replication status on one shard.
type ReplicationInfo struct {
	// Role is RoleOwner or RoleFollower.
	Role string `json:"role"`
	// Term is the fencing term: promotions increment it, and a shard
	// rejects replication traffic from owners with an older term.
	Term uint64 `json:"term"`
	// Seq is the last replication sequence number this shard published
	// (owner) or applied (follower).
	Seq uint64 `json:"seq"`
	// Stale marks a follower that detected a gap in its apply stream
	// and is awaiting a re-seed; its reads answer replica_lagging.
	Stale bool `json:"stale,omitempty"`
	// Owner is the owner's base URL, set on followers.
	Owner string `json:"owner,omitempty"`
	// Seeds counts full snapshot seeds this owner shipped; CatchUps
	// counts followers it re-synced from the write-ahead log instead.
	// The replica smoke test pins "a bounced follower does not force a
	// re-seed" on these.
	Seeds    uint64 `json:"seeds,omitempty"`
	CatchUps uint64 `json:"catchUps,omitempty"`
	// Followers is the owner's view of its replicas.
	Followers []ReplicaFollower `json:"followers,omitempty"`
}

// ReplicaFollower is the owner's record of one follower replica.
type ReplicaFollower struct {
	Addr string `json:"addr"`
	// Synced means the follower holds every acked publish up to Seq;
	// an unsynced follower is being (re-)seeded or awaiting one.
	Synced bool   `json:"synced"`
	Seq    uint64 `json:"seq"`
	Error  string `json:"error,omitempty"`
}

// ShardHealth is one shard's row in a routed health report.
type ShardHealth struct {
	Addr       string `json:"addr"`
	Status     string `json:"status"` // "ok" | "unreachable"
	Interfaces int    `json:"interfaces"`
	Error      string `json:"error,omitempty"`
}

// Health is the body of the health operation. Shards is present only
// on routed deployments: one row per shard the router fronts, with
// Status "degraded" when any of them is unreachable.
type Health struct {
	Status        string            `json:"status"`
	GoVersion     string            `json:"goVersion"`
	Revision      string            `json:"revision,omitempty"`
	UptimeSeconds float64           `json:"uptimeSeconds"`
	Ingestion     bool              `json:"ingestion"`
	Persistence   bool              `json:"persistence"`
	Replication   bool              `json:"replication,omitempty"`
	Interfaces    []HealthInterface `json:"interfaces"`
	Shards        []ShardHealth     `json:"shards,omitempty"`
}

// DebugInfo is the body of the debug operation.
type DebugInfo struct {
	Interfaces []DebugInterface `json:"interfaces"`
}

// DebugInterface is one interface's serving counters.
type DebugInterface struct {
	ID      string     `json:"id"`
	Epoch   uint64     `json:"epoch"`
	Queries uint64     `json:"queries"`
	Cache   CacheStats `json:"cache"` // current epoch only
	Plans   CacheStats `json:"plans"` // current epoch only
	// Cumulative across every epoch served (epoch swaps reset the live
	// caches but fold their counters forward). Sourced from the same
	// atomics as the pi_query_result_cache_total /
	// pi_query_plan_cache_total metric series.
	CacheTotals  CacheStats `json:"cacheTotals"`
	PlanTotals   CacheStats `json:"planTotals"`
	CacheHitRate float64    `json:"cacheHitRate"`
	PlanHitRate  float64    `json:"planHitRate"`
}
