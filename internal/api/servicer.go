package api

import (
	"context"

	"repro/internal/qlog"
)

// Servicer is the extracted operation surface of the service layer —
// the seam every transport is written against. *Service implements it
// over an in-process registry; internal/shard's Router implements it
// by proxying each operation to the shard that owns the interface, so
// a fleet of processes is a drop-in replacement for one: the HTTP
// transport (internal/server) cannot tell whether it fronts a single
// registry or a routed cluster.
//
// Operations that take an interface ID return *Error with CodeNotFound
// when the ID is unknown, CodeMoved (with the new owner's address)
// when a shard has relinquished the interface, and CodeShardUnavailable
// when a routed implementation cannot reach the owner.
//
// The query is the one operation that carries the request context
// (QueryIntoCtx, which the transport calls); Query is its context-free
// form for in-process callers.
type Servicer interface {
	// ListInterfaces returns a summary row per hosted interface, sorted
	// by ID. A routed implementation fans out and merges.
	ListInterfaces() []InterfaceSummary
	// GetInterface returns one interface's widgets and initial query.
	GetInterface(id string) (*InterfaceDetail, error)
	// Epoch returns the interface's current epoch.
	Epoch(id string) (*EpochResponse, error)
	// Page returns the compiled live HTML page for the interface.
	Page(id string) (string, error)
	// Query binds widget state, executes, and returns one page of rows.
	Query(id string, req QueryRequest) (*QueryResponse, error)
	// CtxQuerier is the serving path's query: Query with the request's
	// context and a caller-provided response.
	CtxQuerier
	// IngestReady reports whether IngestLog can accept entries for the
	// interface (cheap pre-check before decoding a large body).
	IngestReady(id string) error
	// IngestLog submits query-log entries for incremental re-mining;
	// AppendRows submits new dataset rows for one table. Both publish
	// before they ack. flush is ignored (every write publishes), kept
	// only so callers written against the buffered feed still compile.
	IngestLog(id string, entries []qlog.Entry, flush bool) (*IngestAck, error)
	AppendRows(id string, req RowsRequest, flush bool) (*RowsAck, error)
	// MutateRows evaluates one UPDATE or DELETE statement against the
	// interface's store and publishes the result as a versioned
	// mutation.
	MutateRows(id string, req MutateRequest) (*MutateAck, error)
	// DeleteInterface unhosts the interface: it stops being served,
	// its live feed detaches and its durable snapshot (if any) is
	// removed.
	DeleteInterface(id string) (*DeleteAck, error)
	// Snapshot persists hosted interfaces durably. A routed
	// implementation fans out to every shard.
	Snapshot() (*SnapshotResult, error)
	// Health reports liveness, build info and per-interface serving
	// state.
	Health() *Health
	// Debug returns cache and traffic counters per interface.
	Debug() *DebugInfo
}

var _ Servicer = (*Service)(nil)

// CtxQuerier is the context-carrying query seam the HTTP transport
// calls. The context carries the obs trace id minted at the edge, so
// it reaches slow-query rings and proxied hops; the response is
// caller-provided so the transport can pool it. Implementations must
// behave exactly like Query otherwise.
type CtxQuerier interface {
	QueryIntoCtx(ctx context.Context, id string, req QueryRequest, resp *QueryResponse) error
}
