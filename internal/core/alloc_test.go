package core

import (
	"testing"

	"repro/internal/workload"
)

// generateAllocCeiling bounds the heap allocations of one Generate over
// a 2,000-entry SDSS log. Measured: 2,148,155 before subtree hashes were
// memoized (a fresh FNV walk per HashOf) and 206,956 after; the ceiling
// is the latter plus 10%, and a third of the former would be 716,051.
// Allocation counts repeat almost exactly from run to run, so this
// guards the gain without depending on timing.
const generateAllocCeiling = 228_000

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
