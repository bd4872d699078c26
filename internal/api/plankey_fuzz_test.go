package api

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
)

// fuzzKeyPaths is a small path alphabet, so decoded binding sets often
// repeat a path (the sort must then order by the rest of the binding)
// and include paths that look like another binding's rendering.
var fuzzKeyPaths = []string{"0", "0/1", "2/0/1", "3:abc", "3", "a|b", ""}

// fuzzKeyValues is every subtree of a few parsed statements: literals,
// predicates, lists and whole clauses, any of which a binding may carry.
func fuzzKeyValues() []*ast.Node {
	var pool []*ast.Node
	for _, sql := range []string{
		"SELECT a FROM t WHERE x = 42 AND y = 'O''Hare|5:x' AND z IN (1, 2.5, -3)",
		"SELECT dest, count(*) FROM ontime WHERE month BETWEEN 1 AND 12 GROUP BY dest ORDER BY dest",
	} {
		sqlparser.MustParse(sql).Walk(func(n *ast.Node, _ ast.Path) bool {
			pool = append(pool, n)
			return true
		})
	}
	return pool
}

// FuzzPlanKey: for any decoded binding set, the hot path's pooled
// AppendPlanKey renders exactly the bytes of the reference PlanKey —
// a divergence would turn every plan-cache probe into a miss. Each
// binding takes a control byte (its form in the low three bits, a
// length or pool index above) and a path byte; numbers take eight more
// bytes as float64 bits, so NaN, infinities and -0 all occur.
func FuzzPlanKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2 | 3<<3, 0, 'a', '|', 'b', 3 | 5<<3, 4})
	f.Add([]byte{2 | 4<<3, 3, 'n', '3', ':', '1', 2 | 1<<3, 4, 'a', 4, 5, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0x80})
	values := fuzzKeyValues()
	f.Fuzz(func(t *testing.T, data []byte) {
		var bindings []WidgetBinding
		for len(data) >= 2 && len(bindings) < 16 {
			ctl, arg := data[0], int(data[0]>>3)
			b := WidgetBinding{Path: fuzzKeyPaths[int(data[1])%len(fuzzKeyPaths)]}
			data = data[2:]
			switch ctl & 7 {
			case 0:
				b.Absent = true
			case 1:
				var bits [8]byte
				data = data[copy(bits[:], data):]
				v := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
				b.Number = &v
			case 2:
				n := min(arg, len(data))
				s := string(data[:n])
				data = data[n:]
				b.Text = &s
			case 3:
				b.Value = values[arg%len(values)]
			case 4:
				// Malformed: nothing set.
			default:
				// Several forms set at once: the first in PlanKey's order wins.
				v, s := float64(arg), "x"
				b.Number, b.Text, b.Value = &v, &s, values[arg%len(values)]
			}
			bindings = append(bindings, b)
		}
		want := PlanKey(bindings)
		sc := planKeyPool.Get().(*planKeyScratch)
		defer planKeyPool.Put(sc)
		sc.AppendPlanKey(bindings)
		if got := string(sc.buf); got != want {
			t.Fatalf("AppendPlanKey = %q, PlanKey = %q for %d bindings", got, want, len(bindings))
		}
	})
}
