package mvcc

import "sort"

// LiveCount returns the number of live rows (without materializing).
func (t *Table) LiveCount() int { return len(t.live) }

// VersionCount returns the arena length, live and retired versions
// both — Compact shrinks it.
func (t *Table) VersionCount() int { return len(t.versions) }

// IndexedCols lists the indexed columns (lowercased, sorted).
func (t *Table) IndexedCols() []string {
	out := make([]string, 0, len(t.indexes))
	for k := range t.indexes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
