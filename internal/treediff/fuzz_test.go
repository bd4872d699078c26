package treediff

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
	"repro/internal/workload"
)

// refEqual is deep structural equality that never looks at a memoized
// hash: the reference ast.Equal must agree with.
func refEqual(a, b *ast.Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Type != b.Type || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for k, v := range a.Attrs {
		if w, ok := b.Attrs[k]; !ok || w != v {
			return false
		}
	}
	for i := range a.Children {
		if !refEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// refPruneLCA is pruneLCA by its definition: keep the ancestors whose
// path is the longest common prefix of some pair of leaf paths.
func refPruneLCA(leaves, ancestors []Diff) []Diff {
	keep := map[string]bool{}
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			p, q := leaves[i].Path, leaves[j].Path
			k := 0
			for k < len(p) && k < len(q) && p[k] == q[k] {
				k++
			}
			keep[p[:k].String()] = true
		}
	}
	var out []Diff
	for _, a := range ancestors {
		if keep[a.Path.String()] {
			out = append(out, a)
		}
	}
	return out
}

// parseCorpus reads the string inputs of a checked-in fuzz corpus.
func parseCorpus(tb testing.TB, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(arg, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// FuzzCompare: for two statements that parse, the leaf diffs of
// Compare(a, b) rebuild b from a; CompareLCA keeps exactly the ancestors
// refPruneLCA keeps; the hash-first ast.Equal agrees with a hash-free
// deep equality before, during and after hashing; and every tree hashes
// like its never-hashed clone. Seeded like FuzzParse — the mined
// workloads' queries, each paired with the next, plus FuzzParse's
// checked-in corpus.
func FuzzCompare(f *testing.F) {
	var seeds []string
	for _, l := range []*qlog.Log{workload.SDSSFullLog(40, 7), workload.OLAPLog(40, 7)} {
		seeds = append(seeds, l.SQLs()...)
	}
	seeds = append(seeds, parseCorpus(f, "../sqlparser/testdata/fuzz/FuzzParse")...)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, err := sqlparser.ParseStatement(sa)
		if err != nil {
			return
		}
		b, err := sqlparser.ParseStatement(sb)
		if err != nil {
			return
		}
		agree := func(stage string, x, y *ast.Node) {
			t.Helper()
			if got, want := ast.Equal(x, y), refEqual(x, y); got != want {
				t.Fatalf("%s: Equal = %v, reference %v:\n%s\n%s", stage, got, want, x, y)
			}
		}
		agree("unhashed", a, b)
		res := Compare(a, b) // hashes the children it aligns
		agree("after Compare", a, b)
		got := ApplyAll(a, res.Leaves)
		if !ast.Equal(got, b) || !refEqual(got, b) {
			t.Fatalf("applying %v to %q gives\n%s\nwant %q:\n%s", res.Leaves, sa, got, sb, b)
		}
		agree("rebuilt, unhashed", got, b)
		lca, want := CompareLCA(a, b).Ancestors, refPruneLCA(res.Leaves, res.Ancestors)
		if len(lca) != len(want) {
			t.Fatalf("LCA pruning kept %v, want %v", lca, want)
		}
		for i := range lca {
			if !slices.Equal(lca[i].Path, want[i].Path) {
				t.Fatalf("LCA pruning kept %v, want %v", lca, want)
			}
		}
		for _, x := range []*ast.Node{a, b, got} {
			if h, c := ast.HashOf(x), ast.HashOf(x.Clone()); h != c {
				t.Fatalf("%s hashes %x, its clone %x", x, h, c)
			}
		}
		agree("hashed", a, b)
		agree("rebuilt, hashed", got, b)
	})
}
