package core

import (
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/interaction"
	"repro/internal/mapper"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/widgets"
)

// LiveOptions is Options under an older name that bench/ compiles
// against; it survives only until a benchmark PR can drop it.
type LiveOptions = Options

// DefaultLiveOptions is DefaultOptions; it survives only until a
// benchmark PR can drop it.
func DefaultLiveOptions() LiveOptions { return DefaultOptions() }

// AppendStats reports what one Miner.Append did.
type AppendStats struct {
	Added       int // entries parsed, mined and now part of the log
	ParseErrors int // entries dropped because they did not parse
	// LastParseError describes the most recent dropped entry ("" when
	// every entry parsed).
	LastParseError string
}

// Miner is the one mining path. It retains the interaction graph and
// the mapper's partition state, and every interface — Generate's,
// NewMiner's, each Append's — is the result of extend on that state, so
// a miner grown by appends equals batch-mining the grown log because
// batch mining is an append onto an empty miner. Appending K entries
// costs O(K·window) tree comparisons, O(K) adds to partition domains
// that only grow, and a re-merge that scans the edge-ordered diff
// records linearly with no hashing of pairs (mapper.State); the merge
// is the part still linear in the log.
//
// The miner hash-conses every query it parses (ast.Interner): trees
// mined by one Miner share every equal subtree, so pointer equality
// means structural equality within a miner. It also memoizes each
// statement, from its exact SQL text to its interned root, so a text
// repeated in the log is parsed only the first time; real logs repeat
// heavily (the 10,000-entry SDSS log holds 330 distinct texts). The
// memo's keys share the strings the miner's log already holds, and the
// memo grows only with distinct texts, as the Interner does; both are
// evicted only once ROADMAP item 2(d) bounds a miner's history.
//
// A Miner is not safe for concurrent use. Callers (internal/ingest)
// serialize Append and hand the returned immutable *Interface to the
// serving layer.
type Miner struct {
	opts  Options
	log   *qlog.Log
	graph *interaction.Graph
	state *mapper.State
	iface *Interface
	// intern holds the canonical node of every subtree mined so far.
	intern *ast.Interner
	// stmts maps each SQL text that parsed to its interned root.
	stmts map[string]*ast.Node

	comparisons int
}

// extend mines the new queries into the graph (§4.2, §6), adds the new
// edges' diff records to the partition state, re-merges (§5) and
// assembles the resulting Interface.
func (m *Miner) extend(queries []*ast.Node) {
	t0 := time.Now()
	prevEdges := len(m.graph.Edges)
	st := interaction.MineAppend(m.graph, queries, m.opts.Miner)
	m.comparisons += st.Comparisons
	mineTime := time.Since(t0)

	t1 := time.Now()
	diffs := make([]interaction.DiffRecord, 0, st.DiffRecords)
	for _, e := range m.graph.Edges[prevEdges:] {
		diffs = append(diffs, e.Diffs...)
	}
	m.state.AddDiffs(diffs)
	ws := m.state.Widgets()
	m.iface = &Interface{
		Widgets: ws,
		Initial: m.graph.Queries[0],
		Graph:   m.graph,
		Stats: Stats{
			MineTime:    mineTime,
			MapTime:     time.Since(t1),
			Comparisons: m.comparisons,
			Edges:       len(m.graph.Edges),
			DiffRecords: m.graph.NumDiffs(),
			WidgetCount: len(ws),
			Cost:        mapper.TotalCost(ws),
		},
	}
}

// NewMiner parses and mines the initial log (in log order; the earliest
// query becomes q0, per §4.4) and returns a miner ready for appends.
// Each distinct text is parsed once; a repeat reuses its interned root.
func NewMiner(log *qlog.Log, opts Options) (*Miner, error) {
	if log.Len() == 0 {
		return nil, fmt.Errorf("core: empty query log")
	}
	if opts.Library == nil {
		opts.Library = widgets.DefaultLibrary()
	}
	m := &Miner{opts: opts, graph: &interaction.Graph{}, state: mapper.NewState(opts.Library),
		intern: ast.NewInterner(), stmts: make(map[string]*ast.Node)}
	start := time.Now()
	queries := make([]*ast.Node, log.Len())
	for i, e := range log.Entries {
		n, err := m.parse(e.SQL)
		if err != nil {
			return nil, log.EntryError(i, err)
		}
		queries[i] = n
	}
	parseTime := time.Since(start)
	m.extend(queries)
	m.log = log.Slice(0, log.Len()) // private copy, Seq rebased
	m.iface.Stats.ParseTime = parseTime
	return m, nil
}

// Interface returns the current mined interface. The returned value is
// immutable; each Append produces a fresh one.
func (m *Miner) Interface() *Interface { return m.iface }

// Len returns the number of mined log entries.
func (m *Miner) Len() int { return len(m.graph.Queries) }

// Log returns a copy of the accumulated log.
func (m *Miner) Log() *qlog.Log { return m.log.Slice(0, m.log.Len()) }

// Append parses and mines new log entries. Entries that fail to parse
// are dropped and counted in the returned stats; the good entries are
// still mined. The returned interface is a fresh value (the previous
// one stays valid for readers that hold it). The error is always nil:
// the signature is one bench/ compiles against.
func (m *Miner) Append(entries []qlog.Entry) (*Interface, AppendStats, error) {
	var st AppendStats
	var queries []*ast.Node
	for _, e := range entries {
		n, err := m.parse(e.SQL)
		if err != nil {
			st.ParseErrors++
			st.LastParseError = fmt.Sprintf("entry %q: %v", truncateSQL(e.SQL), err)
			continue
		}
		queries = append(queries, n)
		m.log.Append(e.SQL, e.Client)
	}
	st.Added = len(queries)
	if st.Added > 0 {
		m.extend(queries)
	}
	return m.iface, st, nil
}

// parse returns the interned root of sql, parsing and interning it only
// the first time the miner sees that exact text. Failures are not
// memoized: a bad text is parsed again each time it arrives.
func (m *Miner) parse(sql string) (*ast.Node, error) {
	if n, ok := m.stmts[sql]; ok {
		return n, nil
	}
	n, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	n = m.intern.Intern(n)
	m.stmts[sql] = n
	return n, nil
}

func truncateSQL(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}
