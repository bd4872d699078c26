package core

import (
	"testing"

	"repro/internal/workload"
)

// generateAllocCeiling bounds the heap allocations of one Generate over
// a 2,000-entry SDSS log. Measured: 2,148,155 before subtree hashes were
// memoized (a fresh FNV walk per HashOf), 206,956 after, 182,039 while
// every entry was parsed, and 69,937 once the Miner parses each distinct
// text once (the log holds 328 distinct texts among its 2,000 entries);
// the ceiling is the last plus 10%. Allocation counts repeat almost
// exactly from run to run, so this guards the gain without depending on
// timing.
const generateAllocCeiling = 76_930

func TestGenerateAllocBudget(t *testing.T) {
	log := workload.SDSSFullLog(2000, 1)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Generate(log, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > generateAllocCeiling {
		t.Fatalf("Generate allocates %.0f times, ceiling %d", allocs, generateAllocCeiling)
	}
	t.Logf("Generate allocates %.0f times (ceiling %d)", allocs, generateAllocCeiling)
}

// appendAllocCeiling bounds the heap allocations of one 8-entry
// Miner.Append onto a 2,000-entry SDSS lookup client, the ingest_live
// shape. Measured: 1,425 while every append re-added its
// touched partitions whole and each merge step built its pair sets in
// maps, 696 once partition domains only grow and merging goes by edge
// key, and 352 once a text the miner has seen is not parsed again; the
// ceiling is the last plus 10%.
const appendAllocCeiling = 387

func TestAppendAllocBudget(t *testing.T) {
	const base, per, runs = 2000, 8, 10
	log := workload.SDSSClient(workload.Lookup, 1, base+(runs+1)*per)
	m, err := NewMiner(log.Slice(0, base), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	at := base
	allocs := testing.AllocsPerRun(runs, func() {
		if _, _, err := m.Append(log.Entries[at : at+per]); err != nil {
			t.Fatal(err)
		}
		at += per
	})
	if allocs > appendAllocCeiling {
		t.Fatalf("an %d-entry Append allocates %.0f times, ceiling %d", per, allocs, appendAllocCeiling)
	}
	t.Logf("an %d-entry Append allocates %.0f times (ceiling %d)", per, allocs, appendAllocCeiling)
}
