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
// in-memory executor for generated queries). Serving, live ingestion,
// storage, persistence and sharding have no facade: cmd/pi-serve and
// cmd/pi-router wire internal/api, internal/ingest, internal/store,
// internal/shard and internal/server together, and pi/client is the Go
// SDK for the HTTP API they serve.
package pi

import (
	"net/http"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/htmlgen"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/server"
	"repro/internal/speculate"
	"repro/internal/sqlparser"
	"repro/internal/treediff"
	"repro/internal/vis"
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
	// DB is the in-memory database used by exec().
	DB = engine.DB
	// Table is an in-memory relation (also the shape of query results).
	Table = engine.Table
	// Dependency marks a widget as active only under some states of an
	// ancestor widget (e.g. the Figure 5d TOP slider).
	Dependency = speculate.Dependency
	// Registry holds interfaces registered for serving; it is safe for
	// concurrent use.
	Registry = api.Registry
	// Hosted is one interface registered for serving.
	Hosted = api.Hosted
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

// ParseSQL parses one SELECT statement.
func ParseSQL(sql string) (*Node, error) { return sqlparser.Parse(sql) }

// RenderSQL renders an AST back to SQL text.
func RenderSQL(q *Node) string { return ast.SQL(q) }

// QueryDistance is the normalized tree edit distance between two
// queries (0 identical, 1 unrelated).
func QueryDistance(a, b *Node) float64 { return treediff.NormalizedDistance(a, b) }

// Generate mines the log and returns the interface.
func Generate(log *Log, opts Options) (*Interface, error) { return core.Generate(log, opts) }

// Dependencies detects multi-level widget relationships in a generated
// interface.
func Dependencies(iface *Interface) []Dependency { return speculate.Dependencies(iface) }

// CompileHTML compiles an interface into a standalone HTML+JS page.
func CompileHTML(iface *Interface, title string) (string, error) {
	return htmlgen.Compile(iface, htmlgen.Page{Title: title})
}

// CompileHTMLWithDeps compiles an interface whose dependent widgets are
// disabled while their controlling widget is in a non-supporting state.
func CompileHTMLWithDeps(iface *Interface, title string, deps []Dependency) (string, error) {
	hd := make([]htmlgen.Dependency, len(deps))
	for i, d := range deps {
		hd[i] = htmlgen.Dependency{Widget: d.Widget, On: d.On, ActiveOptions: d.ActiveOptions}
	}
	return htmlgen.Compile(iface, htmlgen.Page{Title: title, Deps: hd})
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

// NewRegistry returns an empty serving registry with the default
// per-interface result-cache size.
func NewRegistry() *Registry { return api.NewRegistry() }

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
