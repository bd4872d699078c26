// Package gen derives every input the benchmark feeds the program from
// a seed: query-log files, held-out ingest batches, widget states for
// the read workloads, dataset rows and mutations for the write
// workload. The same seed always yields byte-identical op sequences.
//
// Two kinds of seed exist on purpose. The run seed (pi-bench -seed)
// drives everything whose cost does not depend on what was drawn: the
// order of ops, zipf draws, row values, mutation predicates, and the
// logs of mine_batch, ingest_live and fleet_write. ContentSeed pins
// the logs, interfaces and state pools of serve_hit / serve_miss,
// because random samples of an interface's closure differ 2x in mean
// execution cost from one sample to the next (23-55 ms per row-path
// state on this box), which no 10% gate survives; there the run seed
// permutes a fixed population instead of drawing a new one.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/api"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qlog"
	"repro/internal/workload"
)

// ContentSeed is the pi-serve -seed of the serve_* workloads and the
// seed of their state pools (see the package comment).
const ContentSeed = 7

// ServeWorkload mirrors cmd/pi-serve's buildWorkload: the log and the
// dataset pi-serve hosts for one -workloads name. The serve_* oracles
// compare the real server's answers with answers computed over these,
// so a drift between the two fails the benchmark rather than skewing it.
func ServeWorkload(name string, n, rows int, seed int64) (*qlog.Log, *engine.DB, error) {
	switch name {
	case "olap":
		return workload.OLAPLog(n, seed), engine.OnTimeDB(rows), nil
	case "adhoc":
		return workload.AdhocLog(n, seed), engine.OnTimeDB(rows), nil
	case "sdss":
		return workload.SDSSClient(workload.Lookup, seed, n), engine.SDSSDB(rows), nil
	}
	return nil, nil, fmt.Errorf("gen: unknown workload %q", name)
}

// Mine returns the interface pi-serve serves for a log: the live path
// hosts through core.NewMiner, not core.Generate.
func Mine(log *qlog.Log) (*core.Interface, error) {
	m, err := core.NewMiner(log, core.DefaultLiveOptions())
	if err != nil {
		return nil, err
	}
	return m.Interface(), nil
}

// Hosted is the in-process twin of one interface a pi-serve hosts.
type Hosted struct {
	ID    string
	Iface *core.Interface
	DB    *engine.DB // full size: what the server executes against
	small *engine.DB // 200 rows: cheap schema validation of row-path states
	// vals[i] is widget i's domain in deterministic order, materialized
	// once: Domain.Values sorts on every call.
	vals [][]*ast.Node
}

// Serving is the in-process twin of a `pi-serve -workloads ... -n N
// -rows R -seed S`: what the state generators sample and the oracles
// execute against.
type Serving struct {
	Hosted []*Hosted
}

// NewServing mines the named workloads exactly as pi-serve would.
func NewServing(names []string, n, rows int, seed int64) (*Serving, error) {
	sv := &Serving{}
	for _, name := range names {
		log, db, err := ServeWorkload(name, n, rows, seed)
		if err != nil {
			return nil, err
		}
		_, small, _ := ServeWorkload(name, 1, 200, seed)
		iface, err := Mine(log)
		if err != nil {
			return nil, fmt.Errorf("gen: mine %s: %w", name, err)
		}
		h := &Hosted{ID: name, Iface: iface, DB: db, small: small}
		for _, w := range iface.Widgets {
			h.vals = append(h.vals, w.Domain.Values())
		}
		sv.Hosted = append(sv.Hosted, h)
	}
	return sv, nil
}

// Get returns the hosted twin by id.
func (sv *Serving) Get(id string) *Hosted {
	for _, h := range sv.Hosted {
		if h.ID == id {
			return h
		}
	}
	return nil
}

// State is one valid widget state of a hosted interface.
type State struct {
	Iface    string
	Bindings []api.WidgetBinding
	Query    *ast.Node // the bound query
	Columnar bool      // engine.CompileColumnar accepts it
}

// Request is the query request a client sends for the state.
func (s *State) Request(limit int) api.QueryRequest {
	return api.QueryRequest{Widgets: s.Bindings, Limit: limit}
}

// maxSet bounds how many widgets one sampled state sets: interfaces
// with dozens of nested widgets (adhoc has ~40) reject almost every
// state that sets many of them at once.
const maxSet = 3

// sample draws one candidate state: each widget is set with
// probability maxSet/len(widgets) to a random member of its domain
// (any integer of the extrapolated range for sliders).
func (h *Hosted) sample(r *rand.Rand) []api.WidgetBinding {
	var bs []api.WidgetBinding
	ws := h.Iface.Widgets
	for i, w := range ws {
		if r.Intn(len(ws)) >= maxSet {
			continue
		}
		b := api.WidgetBinding{Path: w.Path.String()}
		if w.Domain.IsNumericRange() {
			lo, hi := w.Domain.Range()
			v := float64(int64(lo) + r.Int63n(int64(hi-lo)+1))
			b.Number = &v
		} else {
			if v := h.vals[i][r.Intn(len(h.vals[i]))]; v == nil {
				b.Absent = true
			} else {
				b.Value = v
			}
		}
		bs = append(bs, b)
	}
	return bs
}

// ClassPool draws want states of the class the interface's initial
// query is in — columnar-eligible or row-path — and of that class
// only. The read workloads build their working sets from it: an
// interface's other class is the rare one (adhoc yields a columnar
// state in one try of a hundred) and costs several times more or less
// than the common one, so mixing them in would put two cost modes into
// one population.
func (h *Hosted) ClassPool(seed int64, want int) (states []State, columnar bool) {
	if _, columnar = engine.CompileColumnar(h.Iface.Initial); columnar {
		states, _ = h.Pool(seed, want, 0)
	} else {
		_, states = h.Pool(seed, 0, want)
	}
	return states, columnar
}

// Pool draws distinct valid states of the interface from its own
// seeded stream until it has wantCol columnar-eligible and wantRow
// row-path ones (classified by engine.CompileColumnar) or tries run
// out. Asking for more of a class extends that class's list; it never
// changes the states already in it. A state is kept only if
// api.Bind accepts it, no earlier state bound to the same query, and
// it executes: columnar states through the kernels on the full
// dataset, row-path states through the interpreter on a 200-row twin
// (a 20k-row interpreter run costs ~30 ms; the full-size run is the
// unit test's and the run-time oracle's job).
func (h *Hosted) Pool(seed int64, wantCol, wantRow int) (col, row []State) {
	r := rand.New(rand.NewSource(seed))
	seen := map[ast.Hash]bool{}
	for tries := 0; tries < 40*(wantCol+wantRow)+1000 && (len(col) < wantCol || len(row) < wantRow); tries++ {
		bs := h.sample(r)
		q, err := api.Bind(h.Iface, bs)
		if err != nil {
			continue
		}
		key := ast.HashOf(q)
		if seen[key] {
			continue
		}
		seen[key] = true
		st := State{Iface: h.ID, Bindings: bs, Query: q}
		if plan, ok := engine.CompileColumnar(q); ok {
			if len(col) >= wantCol {
				continue
			}
			if _, ran, err := engine.ExecColumnar(h.DB, plan); !ran || err != nil {
				continue
			}
			st.Columnar = true
			col = append(col, st)
			continue
		}
		if len(row) >= wantRow {
			continue
		}
		if _, err := engine.Exec(h.small, q); err != nil {
			continue
		}
		row = append(row, st)
	}
	return col, row
}
