// Package examples runs every example program and checks a line of its
// output, so the pi facade they exercise stays working.
package examples

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// coverDirEnv names a directory for coverage counters: when it is set,
// the examples are built with -cover over the library packages and
// write their counters there (make cover merges them into its profile).
const coverDirEnv = "PI_EXAMPLES_COVERDIR"

func TestExamples(t *testing.T) {
	cases := []struct{ dir, want string }{
		{"adhoc_study", "hold-out recall: "},
		{"olap_dashboard", "wrote olap_dashboard.html ("},
		{"quickstart", "SELECT cty, SUM(sales) FROM t WHERE x > 5 AND cty = 'USA' GROUP BY cty"},
		{"sdss_explorer", "hold-out recall over the next 140 queries: 100%"},
		{"served_dashboard", "5 rows, cache hit (hits=1 misses=1)"},
	}
	coverDir := os.Getenv(coverDirEnv)
	bin := t.TempDir()
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			exe := filepath.Join(bin, c.dir)
			args := []string{"build", "-o", exe}
			if coverDir != "" {
				// A binary writes counters only when its main package is
				// instrumented too; make cover leaves examples/ out of the total.
				args = append(args, "-cover", "-coverpkg=repro/internal/...,repro/pi/...,repro/examples/"+c.dir)
			}
			if out, err := exec.Command("go", append(args, "./"+c.dir)...).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			cmd := exec.Command(exe)
			cmd.Dir = t.TempDir() // olap_dashboard writes its page and chart here
			if coverDir != "" {
				cmd.Env = append(os.Environ(), "GOCOVERDIR="+coverDir)
			}
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%s output lacks %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}
