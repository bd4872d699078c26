package mvcc

// LiveCount returns the number of live rows (without materializing).
func (t *Table) LiveCount() int { return len(t.live) }

// VersionCount returns the arena length, live and retired versions
// both — Compact shrinks it.
func (t *Table) VersionCount() int { return len(t.versions) }
