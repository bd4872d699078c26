// Command pi mines an interactive interface from a SQL query log and
// compiles it to a standalone HTML page, and converts pi-serve data
// dirs written in an older on-disk format.
//
// Usage:
//
//	pi [-o out.html] [-title T] [-window N] [-nolca] [-allpairs] [-summary] logfile
//	pi upgrade DIR
//
// The log format is one SELECT statement per line, optionally prefixed
// with "client<TAB>". With "-" (or no argument) the log is read from
// stdin.
//
// pi upgrade converts a pi-serve data dir in an older on-disk format to
// the current one, in place; stop the server that owns DIR first. See
// API.md "Compatibility".
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interaction"
	"repro/internal/qlog"
	"repro/internal/upgrade"
	"repro/pi"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "upgrade" {
		if len(os.Args) != 3 {
			fatal(fmt.Errorf("usage: pi upgrade DIR"))
		}
		ids, err := upgrade.Dir(os.Args[2])
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pi: upgraded %d interface(s) in %s %v\n", len(ids), os.Args[2], ids)
		return
	}
	out := flag.String("o", "interface.html", "output HTML file ('-' for stdout)")
	title := flag.String("title", "Precision Interface", "page title")
	window := flag.Int("window", 2, "sliding window size (0 = compare all pairs)")
	noLCA := flag.Bool("nolca", false, "disable least-common-ancestor pruning")
	allPairs := flag.Bool("allpairs", false, "shorthand for -window 0")
	summary := flag.Bool("summary", false, "print the widget summary instead of compiling HTML")
	flag.Parse()

	log, err := readLog(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Miner: interaction.Options{WindowSize: *window, LCAPrune: !*noLCA}}
	if *allPairs {
		opts.Miner.WindowSize = 0
	}
	iface, err := pi.Generate(log, opts)
	if err != nil {
		fatal(err)
	}

	if *summary {
		printSummary(iface)
		return
	}
	// Multi-level widget dependencies (Fig 5d style) are always wired
	// into the page; dependent widgets render disabled until their
	// controlling widget is in a supporting state.
	deps := pi.Dependencies(iface)
	page, err := pi.CompileHTMLWithDeps(iface, *title, deps)
	if err != nil {
		fatal(err)
	}
	if *out == "-" {
		fmt.Print(page)
		return
	}
	if err := os.WriteFile(*out, []byte(page), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pi: %d queries -> %d widgets (cost %.0f) -> %s\n",
		log.Len(), len(iface.Widgets), iface.Cost(), *out)
}

func readLog(path string) (*qlog.Log, error) {
	if path == "" || path == "-" {
		return qlog.Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qlog.Read(f)
}

func printSummary(iface *core.Interface) {
	fmt.Printf("initial query: %s\n", ast.SQL(iface.Initial))
	fmt.Printf("widgets (%d, total cost %.0f):\n", len(iface.Widgets), iface.Cost())
	for _, w := range iface.Widgets {
		fmt.Printf("  %-14s path=%-12s options=%d", w.Type.Name, w.Path.String(), w.Domain.Len())
		if w.Domain.IsNumericRange() {
			lo, hi := w.Domain.Range()
			fmt.Printf(" range=[%g, %g]", lo, hi)
		}
		fmt.Println()
	}
	fmt.Printf("mining: %d comparisons, %d edges, %d diff records (%v mine, %v map)\n",
		iface.Stats.Comparisons, iface.Stats.Edges, iface.Stats.DiffRecords,
		iface.Stats.MineTime.Round(1000), iface.Stats.MapTime.Round(1000))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pi:", err)
	os.Exit(1)
}
