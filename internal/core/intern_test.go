package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/qlog"
	"repro/internal/workload"
)

// appendSchedule feeds m the entries of more in seeded chunks of 1–16,
// salted with re-sent entries of m's own log, whose parse trees must
// intern to the nodes already mined.
func appendSchedule(t *testing.T, m *Miner, more *qlog.Log, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	own := m.Log()
	stream := more.Entries
	for len(stream) > 0 {
		k := 1 + r.Intn(min(16, len(stream)))
		chunk := append([]qlog.Entry(nil), stream[:k]...)
		stream = stream[k:]
		for i := r.Intn(3); i > 0; i-- {
			chunk = append(chunk, own.Entries[r.Intn(own.Len())])
		}
		if _, _, err := m.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMinedLogIsCanonical: after batch mining and a seeded sequence of
// appends, every structural class among the nodes reachable from the
// mined queries has exactly one pointer.
func TestMinedLogIsCanonical(t *testing.T) {
	m, err := NewMiner(workload.SDSSFullLog(2000, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	appendSchedule(t, m, workload.SDSSFullLog(240, 2), 34)

	seen := map[*ast.Node]bool{}
	byHash := map[ast.Hash][]*ast.Node{}
	for _, q := range m.Interface().Graph.Queries {
		q.Walk(func(n *ast.Node, _ ast.Path) bool {
			if seen[n] {
				return false // a shared subtree: its nodes are already grouped
			}
			seen[n] = true
			h := ast.HashOf(n)
			byHash[h] = append(byHash[h], n)
			return true
		})
	}
	for _, group := range byHash {
		for i, a := range group {
			for _, b := range group[i+1:] {
				if ast.Equal(a, b) {
					t.Fatalf("two pointers for one subtree: %s", a)
				}
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no nodes reached")
	}
	t.Logf("%d queries, %d distinct subtrees", m.Len(), len(seen))
}

// TestReadersDuringAppend walks an earlier interface — CanExpress,
// domain values, hashes of mined queries — while the miner appends
// entries that intern onto the same nodes. Run under -race it checks
// that interning never writes to a node a reader can see.
func TestReadersDuringAppend(t *testing.T) {
	m, err := NewMiner(workload.SDSSFullLog(300, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Interface()
	queries := append([]*ast.Node(nil), prev.Graph.Queries...)
	want := make([]bool, len(queries))
	for i, q := range queries {
		want[i] = prev.CanExpress(q)
	}
	var hashes []ast.Hash
	for _, w := range prev.Widgets {
		for _, v := range w.Domain.Values() {
			hashes = append(hashes, ast.HashOf(v))
		}
	}

	done := make(chan struct{})
	errs := make(chan string, 4)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i = (i + 1) % len(queries) {
				select {
				case <-done:
					return
				default:
				}
				if prev.CanExpress(queries[i]) != want[i] {
					errs <- "CanExpress changed on an earlier interface"
					return
				}
				queries[i].Walk(func(n *ast.Node, _ ast.Path) bool {
					ast.HashOf(n)
					return true
				})
				k := 0
				for _, w := range prev.Widgets {
					for _, v := range w.Domain.Values() {
						if ast.HashOf(v) != hashes[k] {
							errs <- "a domain value of an earlier interface changed"
							return
						}
						k++
					}
				}
			}
		}(g)
	}
	appendSchedule(t, m, workload.SDSSFullLog(60, 2), 35)
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
