// Package pi is the public facade of the Precision Interfaces library:
// it turns SQL query logs into interactive interfaces (Zhang, Zhang,
// Sellam, Wu — "Mining Precision Interfaces From Query Logs", SIGMOD
// 2019).
//
// The minimal flow:
//
//	log := pi.LogFromSQL(
//	    "SELECT a FROM t WHERE x = 1",
//	    "SELECT a FROM t WHERE x = 2",
//	)
//	iface, err := pi.Generate(log, pi.DefaultOptions())
//	page, err := pi.CompileHTML(iface, "My dashboard")
//
// The underlying stages are exposed for advanced use: internal/ast
// (tree model), internal/sqlparser (SQL parsing), internal/treediff
// (subtree transformations), internal/interaction (the interaction
// graph and its miner), internal/widgets (the widget library and cost
// model), internal/mapper (widget mapping) and internal/engine (an
// in-memory executor for generated queries).
package pi

import (
	"io"
	"net/http"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/editor"
	"repro/internal/engine"
	"repro/internal/htmlgen"
	"repro/internal/ingest"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/replica"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/shard"
	"repro/internal/speculate"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/treediff"
	"repro/internal/vis"
	"repro/internal/widgets"
)

// Re-exported core types. Downstream users name them through this
// package; the internal packages remain the implementation.
type (
	// Interface is a generated interface: widgets plus an initial query.
	Interface = core.Interface
	// Options configure generation (mining window, LCA pruning, widget
	// library).
	Options = core.Options
	// Log is an ordered query log.
	Log = qlog.Log
	// Node is a query AST node.
	Node = ast.Node
	// Widget is an instantiated interactive widget.
	Widget = widgets.Widget
	// DB is the in-memory database used by exec().
	DB = engine.DB
	// Table is an in-memory relation (also the shape of query results).
	Table = engine.Table
)

// DefaultOptions returns the paper's recommended configuration:
// sliding window of 2 with least-common-ancestor pruning, and the
// nine-type widget library with the published cost constants.
func DefaultOptions() Options { return core.DefaultOptions() }

// AllPairsOptions compares every pair of queries with full ancestor
// transformations — the unoptimized baseline, appropriate for small
// logs and for heterogeneous multi-client logs where related queries
// are far apart.
func AllPairsOptions() Options {
	return Options{Miner: interaction.Options{WindowSize: 0, LCAPrune: false}}
}

// LogFromSQL builds a log from SQL strings.
func LogFromSQL(queries ...string) *Log { return qlog.FromSQL(queries...) }

// ReadLog parses the text log format (one statement per line,
// optionally "client<TAB>sql").
func ReadLog(r io.Reader) (*Log, error) { return qlog.Read(r) }

// ParseSQL parses one SELECT statement.
func ParseSQL(sql string) (*Node, error) { return sqlparser.Parse(sql) }

// RenderSQL renders an AST back to SQL text.
func RenderSQL(q *Node) string { return ast.SQL(q) }

// Generate mines the log and returns the interface.
func Generate(log *Log, opts Options) (*Interface, error) { return core.Generate(log, opts) }

// CompileHTML compiles an interface into a standalone HTML+JS page.
func CompileHTML(iface *Interface, title string) (string, error) {
	return htmlgen.Compile(iface, title)
}

// Exec executes a query AST against an in-memory database — the exec()
// function generated interfaces assume (§3.3 of the paper).
func Exec(db *DB, q *Node) (*Table, error) { return engine.Exec(db, q) }

// NewDB returns an empty in-memory database.
func NewDB() *DB { return engine.NewDB() }

// NewTable returns an empty in-memory table with the given columns.
func NewTable(name string, cols ...string) *Table { return engine.NewTable(name, cols...) }

// Num and Str construct engine values for loading tables.
func Num(f float64) engine.Value { return engine.Num(f) }
func Str(s string) engine.Value  { return engine.Str(s) }

// Render visualizes a query result — the render() function of §3.3: an
// automatically chosen SVG chart for chartable relations, an ASCII grid
// otherwise.
func Render(t *Table) string { return vis.Render(t) }

// --- Extensions beyond the core pipeline (each maps to a direction the
// paper discusses; see the doc comment of the package behind each
// type).

// Dependency marks a widget as active only under some states of an
// ancestor widget (e.g. the Figure 5d TOP slider).
type Dependency = speculate.Dependency

// Dependencies detects multi-level widget relationships in a generated
// interface.
func Dependencies(iface *Interface) []Dependency { return speculate.Dependencies(iface) }

// CompileHTMLWithDeps compiles an interface whose dependent widgets are
// disabled while their controlling widget is in a non-supporting state.
func CompileHTMLWithDeps(iface *Interface, title string, deps []Dependency) (string, error) {
	hd := make([]htmlgen.Dependency, len(deps))
	for i, d := range deps {
		hd[i] = htmlgen.Dependency{Widget: d.Widget, On: d.On, ActiveOptions: d.ActiveOptions}
	}
	return htmlgen.CompileWithDeps(iface, title, hd)
}

// Catalog is a table→columns schema, inferable from a log.
type Catalog = schema.Catalog

// InferSchema builds a catalog from parsed queries (Appendix D).
func InferSchema(queries []*Node) *Catalog { return schema.InferFromQueries(queries) }

// Verify speculatively checks the interface closure against a schema
// and reports invalid options and option conflicts (§4.5 discussion).
func Verify(iface *Interface, catalog *Catalog, maxPairs int) speculate.Report {
	return speculate.Verify(iface, catalog, maxPairs)
}

// Cluster groups a heterogeneous log into per-analysis clusters using
// the Zhang-Shasha tree edit distance (§3.3 preprocessing). Generate
// one interface per cluster to recover single-analysis recall.
func Cluster(log *Log) ([]sessions.Cluster, error) {
	return sessions.ClusterLog(log, sessions.DefaultOptions())
}

// QueryDistance is the normalized tree edit distance between two
// queries (0 identical, 1 unrelated).
func QueryDistance(a, b *Node) float64 { return treediff.NormalizedDistance(a, b) }

// NewEditor opens an interface-editor session (§5.3): relabel, retype,
// move, resize and hide widgets, then compile the edited page.
func NewEditor(iface *Interface) *editor.Session {
	return editor.NewSession(iface, widgets.DefaultLibrary())
}

// --- Serving layer (internal/api + internal/server): host mined
// interfaces behind the transport-agnostic service layer and expose
// them over the versioned HTTP API. pi/client is the matching Go SDK.

// Registry holds interfaces registered for serving; it is safe for
// concurrent use.
type Registry = api.Registry

// Hosted is one interface registered for serving.
type Hosted = api.Hosted

// Service is the typed, transport-agnostic operation surface over a
// registry (ListInterfaces, GetInterface, Query with pagination,
// IngestLog, Epoch, Health, Debug) with the structured api.Error
// model. HTTP serving, pi/client and future transports all speak it.
type Service = api.Service

// APIError is the structured service error: a stable machine-readable
// Code, the HTTP status transports map it to, and a message.
type APIError = api.Error

// AuthConfig is per-interface bearer-token access control for the
// mutating endpoints (query, log); metadata GETs stay open.
type AuthConfig = server.AuthConfig

// NewRegistry returns an empty serving registry with the default
// per-interface result-cache size.
func NewRegistry() *Registry { return api.NewRegistry() }

// NewService builds the service layer over a registry.
func NewService(reg *Registry) *Service { return api.NewService(reg) }

// Host mines nothing — it registers an already generated interface and
// the dataset its queries run against under the given ID. The DB must
// not be mutated after hosting (see engine.DB's concurrency contract).
func Host(reg *Registry, id, title string, iface *Interface, db *DB) (*Hosted, error) {
	return reg.Add(id, title, iface, db)
}

// ServeHandler returns the HTTP handler exposing the registry's
// versioned JSON API and served pages (GET /v1/interfaces,
// GET /v1/interfaces/{id}[/page|/epoch], POST /v1/interfaces/{id}/query,
// GET /v1/healthz, GET /v1/debug).
func ServeHandler(reg *Registry) http.Handler {
	return server.New(api.NewService(reg)).Handler()
}

// ServeHandlerWithAuth is ServeHandler with bearer-token auth enforced
// on the query and log endpoints.
func ServeHandlerWithAuth(svc *Service, auth AuthConfig) http.Handler {
	return server.New(svc, server.WithAuth(auth)).Handler()
}

// Serve hosts the registry's interfaces on addr until the listener
// fails, using production timeouts (see internal/server.HTTPServer).
func Serve(addr string, reg *Registry) error {
	return server.New(api.NewService(reg)).ListenAndServe(addr)
}

// CompileServedHTML compiles an interface into a page whose
// interactions POST widget state to the given query endpoint — the
// live-page variant of CompileHTML.
func CompileServedHTML(iface *Interface, title, endpoint string) (string, error) {
	return htmlgen.CompileServed(iface, title, endpoint)
}

// --- Live ingestion (internal/ingest): stream query-log entries into
// hosted interfaces, re-mine incrementally and hot-swap the result
// under a bumped epoch, so dashboards improve as users keep querying.

// Ingester buffers submitted log entries per interface and re-mines
// incrementally; it also implements the server's Ingestor hook, which
// enables POST /v1/interfaces/{id}/log.
type Ingester = ingest.Ingester

// IngestOptions configure ingestion batching (batch size, buffer
// bound, background flush interval).
type IngestOptions = ingest.Options

// IngestAck reports what happened to one batch of submitted entries.
type IngestAck = api.IngestAck

// LogEntry is one query-log entry (SQL plus optional client).
type LogEntry = qlog.Entry

// NewIngester returns an ingester over the registry with default
// batching. Wire it into a server (ServeLiveHandler or
// server.SetIngestor) to expose HTTP ingestion, and run
// Ingester.Run in a goroutine to flush trickle traffic.
func NewIngester(reg *Registry, opts IngestOptions) *Ingester { return ingest.New(reg, opts) }

// HostLive mines the log and hosts the interface with a live feed
// attached: entries submitted later (Ingest, the HTTP log endpoint, or
// Ingester.Tail) are re-mined incrementally and hot-swapped in while
// the interface keeps its ID and epoch history.
func HostLive(ing *Ingester, id, title string, log *Log, db *DB) (*Hosted, error) {
	return ing.Host(id, title, log, db, core.DefaultOptions())
}

// Ingest submits SQL statements to a live-hosted interface. Entries
// buffer until a batch fills or the background flusher runs; use
// ing.Flush(id) to force an immediate re-mine + swap.
func Ingest(ing *Ingester, id string, sqls ...string) (IngestAck, error) {
	entries := make([]qlog.Entry, len(sqls))
	for i, s := range sqls {
		entries[i] = qlog.Entry{SQL: s}
	}
	return ing.Submit(id, entries)
}

// ServeLiveHandler is ServeHandler with live ingestion enabled: the
// returned handler additionally accepts POST /v1/interfaces/{id}/log
// and reports ingestion state in GET /v1/healthz.
func ServeLiveHandler(reg *Registry, ing *Ingester) http.Handler {
	svc := api.NewService(reg)
	svc.SetIngestor(ing)
	return server.New(svc).Handler()
}

// --- Versioned storage and persistence (internal/store +
// internal/ingest): live-hosted interfaces sit on a copy-on-write
// store whose snapshots the engine executes against, row appends ride
// the same epoch discipline as interface swaps, and (log, dataset,
// epoch) serialize durably so a killed server restores without the
// original log.

// Store is the copy-on-write versioned catalog backing live-hosted
// interfaces: Snapshot() returns an immutable execution target,
// AppendRows publishes a new version without copying rows.
type Store = store.Store

// ExecCatalog is the read-only view engine.Exec consumes; a *DB and a
// Store snapshot both satisfy it.
type ExecCatalog = engine.Catalog

// RowsAck reports what happened to one batch of appended rows.
type RowsAck = api.RowsAck

// MutateAck reports what happened to one UPDATE/DELETE mutation.
type MutateAck = api.MutateAck

// SnapshotResult reports what a durable snapshot persisted.
type SnapshotResult = api.SnapshotResult

// Persister saves and restores hosted interfaces under a data dir.
type Persister = ingest.Persister

// PersistOptions configure restore mining and UDF re-attachment.
type PersistOptions = ingest.PersistOptions

// NewStore wraps a built database in a copy-on-write store. The
// caller must not mutate db afterwards; grow it through AppendRows.
func NewStore(db *DB) *Store { return store.FromDB(db) }

// AppendRows streams new dataset rows into one table of a live-hosted
// interface. Rows buffer until a batch fills; flush forces an
// immediate copy-on-write publish plus hot swap, so the ack's epoch
// reflects the rows.
func AppendRows(ing *Ingester, id, table string, flush bool, rows ...[]engine.Value) (RowsAck, error) {
	return ing.SubmitRows(id, table, rows, flush)
}

// MutateRows runs one UPDATE or DELETE statement against a live-hosted
// interface's store. The predicate evaluates against the current
// snapshot; the matched rows publish as a versioned mutation under a
// bumped epoch before the ack returns. ifEpoch (nonzero) makes the
// call conditional on the store's data epoch.
func MutateRows(ing *Ingester, id, sql string, ifEpoch uint64) (MutateAck, error) {
	return ing.SubmitMutation(id, sql, ifEpoch)
}

// NewPersister returns a snapshot/restore coordinator writing under
// dir for the ingester's live-hosted interfaces.
func NewPersister(dir string, ing *Ingester) *Persister {
	return ingest.NewPersister(dir, ing, ingest.PersistOptions{})
}

// NewPersistentService builds the service layer with durable storage:
// interfaces saved under the persister's dir are restored (at their
// saved epochs) before the service is returned, and the Snapshot
// operation is enabled.
func NewPersistentService(reg *Registry, p *Persister) (*Service, error) {
	svc, _, err := api.NewPersistentService(reg, p)
	return svc, err
}

// --- Sharding (internal/shard): partition hosted interfaces across
// processes. A shard node is a full server plus the replication admin
// surface (seed, stream, promote, hand off); a router is a drop-in
// Servicer that proxies to the owning shard, fans out fleet-wide
// operations and migrates interfaces live.

// Servicer is the transport-agnostic operation surface both a local
// Service and a ShardRouter implement — the seam that makes a routed
// fleet a drop-in replacement for one process.
type Servicer = api.Servicer

// ShardNode wraps a service as one shard of a fleet: same operations,
// plus the replication control plane (follow/apply/promote/demote/
// handoff) and moved tombstones.
type ShardNode = shard.Node

// ShardNodeOptions configure a shard node (advertised address, restore
// mining options, UDF re-attachment, optional persistence).
type ShardNodeOptions = shard.NodeOptions

// ShardRouter fronts a fleet of shards behind the Servicer seam.
type ShardRouter = shard.Router

// ShardRouterOptions configure a router (shared token, per-operation
// timeout, placement pins, replication factor, read fan-out and
// failover policy).
type ShardRouterOptions = shard.RouterOptions

// ReplicaManager is a shard node's replication control plane: it keeps
// warm followers seeded and streaming, and runs the term-fenced
// promote/demote protocol failover is built on. Reach it through
// ShardNode.Replication().
type ReplicaManager = replica.Manager

// ReplicationStatus is the router-admin view of the fleet's replica
// sets (per interface: owner, term, followers and their lag).
type ReplicationStatus = shard.ReplicationStatus

// NewShardNode wraps the service and its ingester as a shard node
// advertising the given options' address.
func NewShardNode(svc *Service, ing *Ingester, opts ShardNodeOptions) (*ShardNode, error) {
	return shard.NewNode(svc, ing, opts)
}

// NewShardRouter builds a router over the given shard base URLs; call
// Refresh on it to discover placements before serving.
func NewShardRouter(addrs []string, opts ShardRouterOptions) (*ShardRouter, error) {
	return shard.NewRouter(addrs, opts)
}

// ServeShardHandler returns the HTTP handler for a shard node: the
// full v1 surface plus the /v1/shard admin surface, both under the
// auth config.
func ServeShardHandler(node *ShardNode, auth AuthConfig) http.Handler {
	return server.New(node,
		server.WithAuth(auth),
		server.WithAdmin("/v1/shard/", node.AdminHandler(auth)),
	).Handler()
}

// ServeRouterHandler returns the HTTP handler for a router: the
// proxied v1 surface plus the /v1/router admin surface, both under the
// auth config.
func ServeRouterHandler(rt *ShardRouter, auth AuthConfig) http.Handler {
	return server.New(rt,
		server.WithAuth(auth),
		server.WithAdmin("/v1/router/", rt.AdminHandler(auth)),
	).Handler()
}
