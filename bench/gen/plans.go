package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/api"
	"repro/internal/qlog"
	"repro/internal/workload"
)

// ReadPlan is the op sequence of a read workload: States is the
// working set, Warm and Timed index into it in issue order.
type ReadPlan struct {
	States []State
	Warm   []int
	Timed  []int
}

// HitStatesPerIface is the serve_hit working set per interface: three
// interfaces x 64 states stay inside pi-serve's 256-entry result and
// plan caches, so after one touch each every op is a cache hit.
const HitStatesPerIface = 64

// hitMix is the serve_hit interface mix in percent, in Serving order
// (olap, adhoc, sdss).
var hitMix = []int{50, 25, 25}

// HitPlan builds the serve_hit sequence: up to 64 valid states per
// interface (a fixed population, see ContentSeed), an interface drawn
// 50/25/25 and a state drawn zipf(1.1) for every op by the run seed.
// The warm-up first touches every state once, so that no timed op can
// be the first to ask for its state, then continues with draws.
func HitPlan(sv *Serving, seed int64, warm, timed int) (*ReadPlan, error) {
	if len(sv.Hosted) != len(hitMix) {
		return nil, fmt.Errorf("gen: serve_hit wants %d interfaces, got %d", len(hitMix), len(sv.Hosted))
	}
	p := &ReadPlan{}
	first := make([]int, len(sv.Hosted)) // index of each interface's first state
	count := make([]int, len(sv.Hosted))
	for i, h := range sv.Hosted {
		states, _ := h.ClassPool(ContentSeed, HitStatesPerIface)
		if len(states) == 0 {
			return nil, fmt.Errorf("gen: no valid state for interface %s", h.ID)
		}
		first[i], count[i] = len(p.States), len(states)
		p.States = append(p.States, states...)
	}
	r := rand.New(rand.NewSource(seed))
	zipfs := make([]*rand.Zipf, len(sv.Hosted))
	// The zipf rank -> state assignment is seeded too: which states are
	// the popular ones differs per seed, the popularity curve does not.
	ranks := make([][]int, len(sv.Hosted))
	for i := range sv.Hosted {
		zipfs[i] = rand.NewZipf(r, 1.1, 1, uint64(count[i]-1))
		ranks[i] = r.Perm(count[i])
	}
	draw := func() int {
		x, i := r.Intn(100), 0
		for x >= hitMix[i] {
			x -= hitMix[i]
			i++
		}
		return first[i] + ranks[i][zipfs[i].Uint64()]
	}
	for s := range p.States {
		p.Warm = append(p.Warm, s)
	}
	for len(p.Warm) < warm {
		p.Warm = append(p.Warm, draw())
	}
	for len(p.Timed) < timed {
		p.Timed = append(p.Timed, draw())
	}
	return p, nil
}

// MissColumnarShare is the share of serve_miss ops that are
// columnar-eligible, by construction; the rest run the row interpreter.
const MissColumnarShare = 0.7

// MissPlan builds the serve_miss sequence: warm+timed ops, every one a
// distinct bound query (a result- and plan-cache miss), exactly
// MissColumnarShare of each phase columnar-eligible. The population is
// fixed (ContentSeed): the timed phase always holds the same states,
// so its total work is the same for every run seed; the run seed
// permutes the order. An interface contributes to one class only (see
// ClassPool): columnar states come from olap and sdss, row-path states
// from adhoc (ORDER BY, HAVING, subqueries). adhoc's few columnar
// states cost 5x the others'; mixed in, they put op_p50_us on the
// boundary between two modes of one class.
func MissPlan(sv *Serving, seed int64, warm, timed int) (*ReadPlan, error) {
	split := func(n int) (col, row int) {
		col = int(math.Round(MissColumnarShare * float64(n)))
		return col, n - col
	}
	warmCol, warmRow := split(warm)
	timedCol, timedRow := split(timed)
	wantCol, wantRow := warmCol+timedCol, warmRow+timedRow

	var cols, rows [][]State
	for _, h := range sv.Hosted {
		// Ask every interface for the larger demand; interleave trims.
		if states, columnar := h.ClassPool(ContentSeed, max(wantCol, wantRow)); columnar {
			cols = append(cols, states)
		} else {
			rows = append(rows, states)
		}
	}
	col, row := interleave(cols, wantCol), interleave(rows, wantRow)
	if len(col) < wantCol || len(row) < wantRow {
		return nil, fmt.Errorf("gen: serve_miss wants %d columnar + %d row-path states, closures gave %d + %d",
			wantCol, wantRow, len(col), len(row))
	}

	p := &ReadPlan{}
	r := rand.New(rand.NewSource(seed))
	phase := func(cs, rs []State) []int {
		base := len(p.States)
		p.States = append(append(p.States, cs...), rs...)
		idx := make([]int, len(cs)+len(rs))
		for i, j := range r.Perm(len(idx)) {
			idx[i] = base + j
		}
		return idx
	}
	// Timed states are the head of each pool, so the timed population
	// does not depend on the warm-up length either.
	p.Timed = phase(col[:timedCol], row[:timedRow])
	p.Warm = phase(col[timedCol:wantCol], row[timedRow:wantRow])
	return p, nil
}

// interleave takes states round-robin from the lists until it has
// want of them or every list is spent.
func interleave(lists [][]State, want int) []State {
	var out []State
	for i := 0; len(out) < want; i++ {
		took := false
		for _, l := range lists {
			if i < len(l) && len(out) < want {
				out = append(out, l[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// IngestPlan is the ingest_live input: pi-serve mines the first Base
// entries of a seeded SDSS lookup client itself (-workloads sdss -n
// Base -seed Seed); Batches are the entries that client issues next,
// held out from the server and fed to it per entries at a time.
type IngestPlan struct {
	Base    int
	Batches [][]api.LogEntry
}

// NewIngestPlan cuts ops batches of per entries from the log's tail.
func NewIngestPlan(seed int64, base, ops, per int) *IngestPlan {
	log := workload.SDSSClient(workload.Lookup, seed, base+ops*per)
	p := &IngestPlan{Base: base}
	for i := 0; i < ops; i++ {
		batch := make([]api.LogEntry, per)
		for j := range batch {
			e := log.Entries[base+i*per+j]
			batch[j] = api.LogEntry{SQL: e.SQL, Client: e.Client}
		}
		p.Batches = append(p.Batches, batch)
	}
	return p
}

// MineLog is the mine_batch input: the paper's scalability workload, a
// heterogeneous 16-client SDSS log.
func MineLog(entries int, seed int64) *qlog.Log {
	return workload.SDSSFullLog(entries, seed)
}

// Fleet op kinds.
const (
	KindAppend = "append"
	KindQuery  = "query"
	KindMutate = "mutate"
)

// FleetOp is one request of the fleet_write cycle.
type FleetOp struct {
	Kind string
	Rows [][]any // KindAppend: rows for table ontime
	SQL  string  // KindMutate
}

// Fleet cycle shape: AppendsPerCycle acked appends of RowsPerAppend
// rows, one read-your-writes query, and a mutation on every
// MutateEvery-th cycle.
const (
	AppendsPerCycle = 4
	RowsPerAppend   = 16
	MutateEvery     = 2
)

var (
	fleetCarriers = []string{"AA", "UA", "DL", "WN", "B6", "AS"}
	fleetStates   = []string{"CA", "NY", "TX", "IL", "GA", "WA", "FL", "CO"}
)

// FleetPlan builds cycles of fleet_write ops. Rows follow the value
// ranges of engine.OnTimeDB so appended data is indistinguishable from
// the seeded table; each mutation rewrites the ~1/336 of the table
// that one (day, month) pair selects.
func FleetPlan(seed int64, cycles int) []FleetOp {
	r := rand.New(rand.NewSource(seed))
	var ops []FleetOp
	for c := 0; c < cycles; c++ {
		for a := 0; a < AppendsPerCycle; a++ {
			rows := make([][]any, RowsPerAppend)
			for i := range rows {
				rows[i] = fleetRow(r)
			}
			ops = append(ops, FleetOp{Kind: KindAppend, Rows: rows})
		}
		ops = append(ops, FleetOp{Kind: KindQuery})
		if c%MutateEvery == MutateEvery-1 {
			ops = append(ops, FleetOp{Kind: KindMutate, SQL: fmt.Sprintf(
				"UPDATE ontime SET delay = delay + 1 WHERE day = %d AND month = %d", 1+r.Intn(28), 1+r.Intn(12))})
		}
	}
	return ops
}

func fleetRow(r *rand.Rand) []any {
	carrier := fleetCarriers[r.Intn(len(fleetCarriers))]
	delay := float64(r.Intn(240) - 30)
	return []any{
		carrier, carrier,
		fleetStates[r.Intn(len(fleetStates))] + "P", fleetStates[r.Intn(len(fleetStates))] + "P",
		fleetStates[r.Intn(len(fleetStates))], fleetStates[r.Intn(len(fleetStates))],
		float64(1 + r.Intn(12)), float64(1 + r.Intn(28)), float64(1 + r.Intn(7)),
		delay, delay + float64(r.Intn(20)-10), delay + float64(r.Intn(20)-10),
		float64(100 + r.Intn(2900)), float64(1), float64(r.Intn(2)), float64(0),
	}
}
