package engine

import "strings"

// ColumnKind classifies one column of a ColumnarTable.
type ColumnKind int

const (
	// ColNum is a column whose every value is a canonical number or
	// NULL: stored as a []float64 with a validity mask.
	ColNum ColumnKind = iota
	// ColStr is a column whose every value is a canonical string or
	// NULL: dictionary-encoded as per-row codes into a deduplicated
	// dict, so predicates evaluate once per distinct value instead of
	// once per row.
	ColStr
	// ColMixed is anything else (booleans, mixed kinds, non-canonical
	// values): kept as boxed Values. Mixed columns can still be
	// projected and filtered through the generic per-row path, but the
	// typed kernels (group-by value ids, dictionary predicates) skip
	// them.
	ColMixed
)

// Column is one typed column vector of a ColumnarTable.
type Column struct {
	Kind ColumnKind

	// ColNum layout.
	Nums  []float64
	Nulls []bool // nil when the column has no NULLs

	// ColStr layout. Codes[i] indexes Dict; -1 encodes NULL.
	Codes []int32
	Dict  []string

	// ColMixed layout.
	Vals []Value
}

// ColumnarTable is a read-only columnar projection of a Table: typed
// column vectors the vectorized kernels (colexec.go) scan instead of
// walking [][]Value rows through the AST evaluator. It is built once
// per table version (Table.Columnar, on the first columnar-eligible
// query) and its vectors are immutable afterwards, so it is safe to
// share across any number of concurrent executions — the same
// discipline as the immutable tables it is derived from. The one thing
// it grows is each column's `=` postings, published atomically.
type ColumnarTable struct {
	Name string
	Cols []string
	N    int // row count

	cols   []Column
	eq     []eqIndex      // per column, lazily built `=` postings (postings.go)
	byName map[string]int // lowercased first-occurrence column name -> index
}

// BuildColumnar converts a row-major table into its columnar
// projection. Classification is strict: a column is numeric only if
// every value is byte-identical to Num(v.Num) or Null(), and a string
// column only if every value is byte-identical to Str(v.Str) or
// Null(), so values the kernels reconstruct are provably identical to
// the originals. Anything else stays boxed (ColMixed).
func BuildColumnar(t *Table) *ColumnarTable {
	ct := &ColumnarTable{
		Name:   t.Name,
		Cols:   t.Cols,
		N:      len(t.Rows),
		cols:   make([]Column, len(t.Cols)),
		eq:     make([]eqIndex, len(t.Cols)),
		byName: make(map[string]int, len(t.Cols)),
	}
	for i, c := range t.Cols {
		key := strings.ToLower(c)
		if _, dup := ct.byName[key]; !dup {
			ct.byName[key] = i
		}
	}
	for ci := range t.Cols {
		ct.cols[ci] = buildColumn(t.Rows, ci)
	}
	return ct
}

func buildColumn(rows [][]Value, ci int) Column {
	allNum, allStr := true, true
	for _, r := range rows {
		v := r[ci]
		if v == (Value{Kind: KindNull}) {
			continue
		}
		if v != Num(v.Num) {
			allNum = false
		}
		if v != Str(v.Str) {
			allStr = false
		}
		if !allNum && !allStr {
			break
		}
	}
	switch {
	case allNum:
		col := Column{Kind: ColNum, Nums: make([]float64, len(rows))}
		for i, r := range rows {
			v := r[ci]
			if v.IsNull() {
				if col.Nulls == nil {
					col.Nulls = make([]bool, len(rows))
				}
				col.Nulls[i] = true
				continue
			}
			col.Nums[i] = v.Num
		}
		return col
	case allStr:
		col := Column{Kind: ColStr, Codes: make([]int32, len(rows))}
		codes := make(map[string]int32)
		for i, r := range rows {
			v := r[ci]
			if v.IsNull() {
				col.Codes[i] = -1
				continue
			}
			code, ok := codes[v.Str]
			if !ok {
				code = int32(len(col.Dict))
				col.Dict = append(col.Dict, v.Str)
				codes[v.Str] = code
			}
			col.Codes[i] = code
		}
		return col
	default:
		col := Column{Kind: ColMixed, Vals: make([]Value, len(rows))}
		for i, r := range rows {
			col.Vals[i] = r[ci]
		}
		return col
	}
}

// colIndexOf resolves a column name (case-insensitive, first
// occurrence wins — the same rule the row-at-a-time binding lookup
// applies) to its position, or -1.
func (ct *ColumnarTable) colIndexOf(name string) int {
	if i, ok := ct.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// valueAt reconstructs the Value at (column ci, row i). For ColNum and
// ColStr columns the reconstruction is byte-identical to the original
// by the strict classification in BuildColumnar.
func (ct *ColumnarTable) valueAt(ci int, i int32) Value {
	col := &ct.cols[ci]
	switch col.Kind {
	case ColNum:
		if col.Nulls != nil && col.Nulls[i] {
			return Null()
		}
		return Num(col.Nums[i])
	case ColStr:
		code := col.Codes[i]
		if code < 0 {
			return Null()
		}
		return Str(col.Dict[code])
	default:
		return col.Vals[i]
	}
}
