// Command benchdiff compares two generations of a benchmark document —
// BENCH_mtscale.json or BENCH_net.json — and reports per-metric deltas as
// a markdown trend table, exiting nonzero when any metric regressed past
// its tolerance band.
//
// Usage:
//
//	benchdiff [-tol-virtual F] [-tol-wall F] OLD.json NEW.json
//
// The schema is detected from the documents' "schema" field (both files
// must agree); package bench owns the document model and says which
// metrics a document flattens to. Metrics fall into three classes:
//
//   - virtual: simulator results; deterministic given the code, so the
//     band (default 10%) only absorbs legitimate model drift between
//     generations, not machine noise.
//   - wall: wall-clock measurements from the rt layer; noisy across hosts
//     and loads, so the band is wide (default 35%).
//   - info: reported, never gates (batch sizes, sim-vs-real residuals).
//
// Rows whose metric only exists in one generation (a sweep point added or
// removed) are reported informationally and never gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpioffload/bench"
)

func main() {
	tolVirtual := flag.Float64("tol-virtual", 0.10, "relative tolerance for deterministic virtual-time metrics")
	tolWall := flag.Float64("tol-wall", 0.35, "relative tolerance for wall-clock metrics")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol-virtual F] [-tol-wall F] OLD.json NEW.json")
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)

	oldDoc, err := bench.LoadDoc(oldPath)
	if err != nil {
		log.Fatalf("benchdiff: %v", err)
	}
	newDoc, err := bench.LoadDoc(newPath)
	if err != nil {
		log.Fatalf("benchdiff: %v", err)
	}
	if oldDoc.Tag() != newDoc.Tag() {
		log.Fatalf("benchdiff: schema mismatch: %s is %q, %s is %q",
			oldPath, oldDoc.Tag(), newPath, newDoc.Tag())
	}

	rows := diffMetrics(oldDoc.Metrics(), newDoc.Metrics(), tolerances{
		virtual: *tolVirtual,
		wall:    *tolWall,
	})
	regressions := writeTable(os.Stdout, oldDoc.Tag(), oldPath, newPath, rows)
	if regressions > 0 {
		fmt.Printf("\n%d metric(s) regressed past tolerance\n", regressions)
		os.Exit(1)
	}
	fmt.Printf("\nno regressions (%d metrics compared)\n", len(rows))
}
