package core

import (
	"fmt"
	"math/rand"
	"slices"
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
						if k == len(hashes) {
							errs <- "a domain of an earlier interface grew"
							return
						}
						if ast.HashOf(v) != hashes[k] {
							errs <- "a domain value of an earlier interface changed"
							return
						}
						k++
					}
				}
				if k != len(hashes) {
					errs <- "a domain of an earlier interface shrank"
					return
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

// domainPrint renders what a reader can see of each widget's domain:
// Len, Values, Range, HasAbsent, IsNumericRange, and the widget's
// record count.
func domainPrint(i *Interface) []string {
	out := make([]string, len(i.Widgets))
	for k, w := range i.Widgets {
		d := w.Domain
		lo, hi := d.Range()
		s := fmt.Sprintf("%s len=%d range=[%g,%g] absent=%v numeric=%v records=%d:",
			w.Path, d.Len(), lo, hi, d.HasAbsent(), d.IsNumericRange(), len(w.D))
		for _, v := range d.Values() {
			if v == nil {
				s += " <absent>"
				continue
			}
			s += " " + v.String()
		}
		out[k] = s
	}
	return out
}

// TestEarlierInterfaceUnchangedByAppend: the mapper grows each
// partition's domain in place, so every interface handed out must hold
// its own copy. After 40 appends of 8 that widen domains, every earlier
// interface still shows what it showed when it was returned, and under
// -race a reader walking the first one while the appends run shares no
// memory with the growing domains.
func TestEarlierInterfaceUnchangedByAppend(t *testing.T) {
	const base, appends, per = 300, 40, 8
	logs := []struct {
		name string
		log  *qlog.Log
	}{
		{"sdss-lookup", workload.SDSSClient(workload.Lookup, 1, base+appends*per)},
		{"sdss-full", workload.SDSSFullLog(base+appends*per, 1)},
		{"olap", workload.OLAPLog(base+appends*per, 7)},
	}
	for _, l := range logs {
		log := l.log
		t.Run(l.name, func(t *testing.T) {
			m, err := NewMiner(log.Slice(0, base), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			first := m.Interface()
			firstPrint := domainPrint(first)

			done := make(chan struct{})
			changed := make(chan bool, 1)
			go func() {
				for {
					select {
					case <-done:
						changed <- false
						return
					default:
					}
					if !slices.Equal(domainPrint(first), firstPrint) {
						changed <- true
						return
					}
				}
			}()

			ifaces := []*Interface{first}
			prints := [][]string{firstPrint}
			for i := 0; i < appends; i++ {
				at := base + i*per
				iface, _, err := m.Append(log.Entries[at : at+per])
				if err != nil {
					t.Fatal(err)
				}
				ifaces = append(ifaces, iface)
				prints = append(prints, domainPrint(iface))
			}
			close(done)
			if <-changed {
				t.Fatal("the first interface's domains changed while appends ran")
			}
			for k, iface := range ifaces {
				if got := domainPrint(iface); !slices.Equal(got, prints[k]) {
					t.Fatalf("interface %d changed after later appends:\nnow:  %q\nthen: %q", k, got, prints[k])
				}
			}
			if slices.Equal(prints[0], prints[len(prints)-1]) {
				t.Fatal("the appends widened no domain; the test checks nothing")
			}
		})
	}
}
