package engine

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"
)

// Table is an in-memory relation: named columns over rows of values.
type Table struct {
	Name string
	Cols []string
	Rows [][]Value

	// colIdx caches lowercased column name -> first index, built
	// lazily by ColIndex. Cols never changes after a table is built
	// (AddRow only appends rows), so the cache cannot go stale.
	colIdx atomic.Pointer[map[string]int]
	// col caches the columnar projection, built lazily by Columnar.
	col atomic.Pointer[ColumnarTable]
}

// NewTable returns an empty table with the given columns.
func NewTable(name string, cols ...string) *Table {
	return &Table{Name: name, Cols: cols}
}

// AddRow appends a row; the value count must match the column count.
func (t *Table) AddRow(vals ...Value) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("engine: table %s has %d columns, row has %d", t.Name, len(t.Cols), len(vals))
	}
	t.Rows = append(t.Rows, vals)
	return nil
}

// MustAddRow is AddRow that panics; for dataset builders with constant
// shapes.
func (t *Table) MustAddRow(vals ...Value) {
	if err := t.AddRow(vals...); err != nil {
		panic(err)
	}
}

// NumRows returns the row count — a read-only accessor for callers
// (like the serving layer) that treat shared tables as immutable.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Cols) }

// ColIndex returns the index of a column (case-insensitive), or -1.
// The first call builds a name->index map; later calls are a single
// map probe instead of a linear scan (this sits under every bound
// predicate evaluation). Unicode names whose ToLower form differs
// from their EqualFold class still hit the linear fallback, so the
// result is identical to the original scan in all cases.
func (t *Table) ColIndex(name string) int {
	m := t.colIdx.Load()
	if m == nil {
		idx := make(map[string]int, len(t.Cols))
		for i, c := range t.Cols {
			key := strings.ToLower(c)
			if _, dup := idx[key]; !dup {
				idx[key] = i
			}
		}
		t.colIdx.Store(&idx)
		m = &idx
	}
	if i, ok := (*m)[strings.ToLower(name)]; ok {
		return i
	}
	for i, c := range t.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Columnar returns the table's columnar projection, built at most once
// and shared by every concurrent reader. A table is immutable once
// shared (a store version, a built DB), so the projection — and the
// `=` postings it grows — lives exactly as long as the table.
func (t *Table) Columnar() *ColumnarTable {
	if c := t.col.Load(); c != nil {
		return c
	}
	t.col.CompareAndSwap(nil, BuildColumnar(t))
	return t.col.Load()
}

// TableFunc is a table-valued function (e.g. the SDSS fGetNearbyObjEq
// UDF): it maps argument values to a relation.
type TableFunc func(args []Value) (*Table, error)

// Catalog is the read-only view the executor compiles against: table
// and table-valued-function lookup by (possibly qualified) name. Exec
// and expression evaluation consume only this interface, so any
// immutable snapshot — a *DB built once, or a copy-on-write store
// version — is a drop-in execution target. Implementations must be
// safe for concurrent lookups and must return tables the caller can
// treat as immutable.
type Catalog interface {
	// Table looks up a table; matching is case-insensitive and accepts
	// the final component of qualified names (dbo.X).
	Table(name string) (*Table, bool)
	// Func looks up a table-valued function under the same name rules.
	Func(name string) (TableFunc, bool)
}

// DB is the catalog: named tables and table-valued functions.
//
// Concurrency contract: a DB is built single-threaded (AddTable,
// AddFunc, loading rows) and is immutable afterwards. All read paths —
// Exec, Table, Func, TableNames — are safe to use
// concurrently once building is done. The serving layer shares one DB
// across all request goroutines under this contract instead of locking
// per query.
type DB struct {
	tables map[string]*Table
	funcs  map[string]TableFunc
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, funcs: map[string]TableFunc{}}
}

// AddTable registers a table (name matching is case-insensitive).
func (db *DB) AddTable(t *Table) { db.tables[strings.ToLower(t.Name)] = t }

// Table looks up a table by (possibly qualified) name.
func (db *DB) Table(name string) (*Table, bool) { return lookup(db.tables, name) }

// AddFunc registers a table-valued function.
func (db *DB) AddFunc(name string, fn TableFunc) { db.funcs[strings.ToLower(name)] = fn }

// Func looks up a table-valued function by (possibly qualified) name.
func (db *DB) Func(name string) (TableFunc, bool) { return lookup(db.funcs, name) }

// lookup is the catalog's one name rule: the lowercased name, else the
// lowercased final component of a qualified name (dbo.X).
func lookup[V any](m map[string]V, name string) (V, bool) {
	v, ok := m[strings.ToLower(name)]
	if !ok {
		parts := strings.Split(name, ".")
		v, ok = m[strings.ToLower(parts[len(parts)-1])]
	}
	return v, ok
}

// Clone returns a DB over the same tables and functions; adding to the
// clone leaves db as it was. The store builds each published version
// this way, sharing every table it does not replace.
func (db *DB) Clone() *DB {
	return &DB{tables: maps.Clone(db.tables), funcs: maps.Clone(db.funcs)}
}

// TableNames lists registered tables in sorted order.
func (db *DB) TableNames() []string {
	var out []string
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Render returns the table as an aligned ASCII grid — the render()
// fallback of §3.3 ("renders a table").
func (t *Table) Render() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = v.String()
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			b.WriteString(strings.Repeat(" ", widths[i]-len(v)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
