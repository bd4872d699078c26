// Package workload synthesizes the paper's three query logs (§7
// "Query Logs"). The real artifacts (the SDSS SkyServer log sample, the
// Tableau student log) are not redistributable, so these generators
// reproduce the statistical structure the paper describes and that the
// algorithms actually observe: the distribution of AST shapes and of
// structural changes between nearby queries.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/qlog"
)

// Archetype is a family of SDSS client behaviours. Clients of the same
// archetype perform the same analysis with the same vocabulary, which
// is what makes cross-client recall bimodal (Figures 7c, 9, 10).
type Archetype int

const (
	// Lookup clients issue Listing-1 style object lookups: the table
	// name, id attribute and hex id literal change, nothing else.
	Lookup Archetype = iota
	// Radial clients run Listing-6 style cone searches with a TOP
	// clause that appears and changes.
	Radial
	// Filter clients run threshold scans over PhotoObj.
	Filter
	// SlowBurn clients mirror the paper's client C5: the structure is
	// fixed, but a *string* literal keeps taking previously unseen
	// values deep into the log, so recall climbs slowly (string domains
	// cannot extrapolate the way numeric sliders do).
	SlowBurn
)

func (a Archetype) String() string {
	switch a {
	case Lookup:
		return "lookup"
	case Radial:
		return "radial"
	case Filter:
		return "filter"
	case SlowBurn:
		return "slowburn"
	}
	return "?"
}

// SDSSClient generates one client's session log of n queries using the
// shared (variant 0) vocabulary: clients with the same archetype are
// mutually expressible, which drives the cross-client experiments.
func SDSSClient(arch Archetype, seed int64, n int) *qlog.Log {
	return SDSSClientV(arch, 0, seed, n)
}

// SDSSClientV generates a client log with an explicit vocabulary
// variant: different variants use disjoint table subsets, attribute
// names and literal ranges, modeling genuinely different analyses. The
// multi-client heterogeneity experiments (Figures 7a/7b) use distinct
// variants so clients cannot train each other.
func SDSSClientV(arch Archetype, variant int, seed int64, n int) *qlog.Log {
	r := rand.New(rand.NewSource(seed))
	l := &qlog.Log{}
	client := fmt.Sprintf("%s-v%d-%d", arch, variant, seed)
	for i := 0; i < n; i++ {
		var sql string
		switch arch {
		case Lookup:
			sql = lookupQuery(r, variant)
		case Radial:
			sql = radialQuery(r, variant, i)
		case Filter:
			sql = filterQuery(r, variant)
		case SlowBurn:
			sql = slowBurnQuery(r, variant, i)
		}
		l.Append(sql, client)
	}
	return l
}

var lookupTables = []string{"SpecLineIndex", "XCRedshift", "SpecObj", "PhotoObj", "Star", "Neighbors", "PlateX"}
var lookupAttrs = []string{"specObjId", "plateId", "objId", "fieldId", "mjd", "fiberId", "runId"}

// lookupQuery: Listing 1. Tables and id attributes come from small
// per-variant sets; ids from a per-variant discrete pool so numeric
// sliders cover the variant's range after a few dozen examples.
//
// Crucially, each table has its own pair of id attributes (as in the
// real SDSS schema): the syntactic cross product of the table widget
// and the attribute widget is therefore mostly schema-invalid, which is
// exactly what the Appendix D precision experiment measures.
func lookupQuery(r *rand.Rand, variant int) string {
	ti := r.Intn(3)
	table := lookupTables[(variant*3+ti)%len(lookupTables)]
	attrs := lookupAttrsFor(variant, ti)
	return fmt.Sprintf("SELECT * FROM %s WHERE %s = 0x%x",
		table, attrs[r.Intn(len(attrs))], idPool(r, variant))
}

// lookupAttrsFor returns the two id attributes of the ti-th table of a
// variant; different tables get disjoint pairs.
func lookupAttrsFor(variant, ti int) [2]string {
	base := (variant*3 + ti) * 2
	return [2]string{
		lookupAttrs[base%len(lookupAttrs)],
		lookupAttrs[(base+1)%len(lookupAttrs)],
	}
}

// idPool draws from a discrete pool of 30 hex ids in a per-variant
// disjoint range; extremes appear with ordinary probability, so slider
// ranges saturate after tens of queries (Figure 6a's shape).
func idPool(r *rand.Rand, variant int) int {
	base := 0x10 + variant*0x10000
	span := 0x8000
	return base + r.Intn(30)*span/29
}

// radialQuery: Listing 6 cone searches; the TOP clause is absent in
// about a third of the queries and its limit varies otherwise.
func radialQuery(r *rand.Rand, variant, i int) string {
	base := 5 + 11*variant
	ras := []string{fmt.Sprintf("%d.848", base), fmt.Sprintf("%d.122", base+1), fmt.Sprintf("%d.901", base)}
	decs := []string{fmt.Sprintf("%d.352", variant), fmt.Sprintf("%d.204", variant+1)}
	rads := []string{"0.5", "1.0", "2.0616", "4.0"}
	top := ""
	if i%3 != 0 {
		tops := []int{1, 5, 10, 50}
		top = fmt.Sprintf("TOP %d ", tops[r.Intn(len(tops))])
	}
	return fmt.Sprintf(
		"SELECT %sg.objID FROM Galaxy as g, dbo.fGetNearbyObjEq(%s, %s, %s) as d WHERE d.objID = g.objID",
		top, ras[r.Intn(len(ras))], decs[r.Intn(len(decs))], rads[r.Intn(len(rads))])
}

// filterQuery: threshold scans whose numeric bounds move within a
// per-variant band over a per-variant photometric column.
func filterQuery(r *rand.Rand, variant int) string {
	bands := []string{"u", "g", "r", "i", "z"}
	band := bands[variant%len(bands)]
	off := 20 * variant
	lo := off + 14 + r.Intn(5)
	hi := lo + 1 + r.Intn(3)
	types := []int{3 + variant, 6 + variant}
	return fmt.Sprintf(
		"SELECT objID, ra, dec FROM PhotoObj WHERE type = %d AND %s > %d AND %s < %d",
		types[r.Intn(len(types))], band, lo, band, hi)
}

// slowBurnQuery keeps widening a string-literal vocabulary: query i can
// reference any of the first 4+i/4 line names, so fresh values keep
// appearing far into the log (the paper's client C5).
func slowBurnQuery(r *rand.Rand, variant, i int) string {
	vocab := 4 + i/4
	name := fmt.Sprintf("line%d_%d", variant, r.Intn(vocab))
	return fmt.Sprintf("SELECT ew, z FROM SpecLineIndex WHERE name = '%s' AND specObjId = 0x%x",
		name, idPool(r, variant))
}

// SDSSClients generates m client logs of n queries each with the
// paper-motivated archetype mix: a majority of simple lookup clients,
// then radial, filter, and a few slow-burn clients. For m = 22 the mix
// is 7/6/5/4, which makes the largest cross-client benefit group size 7
// (Figure 7c: "7 interfaces were able to express 6 other clients").
func SDSSClients(m, n int, seed int64) []*qlog.Log {
	mix := archetypeMix(m)
	out := make([]*qlog.Log, m)
	for i := 0; i < m; i++ {
		out[i] = SDSSClient(mix[i], seed+int64(i)*101, n)
	}
	return out
}

// archetypeMix deals archetypes in proportions 7:6:5:4 per 22 clients.
func archetypeMix(m int) []Archetype {
	var out []Archetype
	quota := []struct {
		a Archetype
		k int
	}{{Lookup, 7}, {Radial, 6}, {Filter, 5}, {SlowBurn, 4}}
	for len(out) < m {
		for _, q := range quota {
			for j := 0; j < q.k && len(out) < m; j++ {
				out = append(out, q.a)
			}
		}
	}
	return out[:m]
}

// HeterogeneousClients generates m clients that perform genuinely
// different analyses: every client gets its own archetype rotation AND
// its own vocabulary variant, so no client's interface expresses
// another's queries. The multi-client experiments (§7.2.3) interleave
// these.
func HeterogeneousClients(m, n int, seed int64) []*qlog.Log {
	out := make([]*qlog.Log, m)
	for i := 0; i < m; i++ {
		out[i] = SDSSClientV(Archetype(i%4), i+1, seed+int64(i)*31, n)
	}
	return out
}

// SDSSFullLog generates a single heterogeneous log of total queries by
// interleaving many clients — the scalability workload of Figure 12.
func SDSSFullLog(total int, seed int64) *qlog.Log {
	clients := SDSSClients(16, (total+15)/16, seed)
	merged := qlog.Interleave(clients...)
	return merged.Slice(0, total)
}
