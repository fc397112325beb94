// Command tracetool analyzes Chrome trace_event JSON files exported by the
// benchmark drivers (-trace=FILE): it rebuilds each run's happens-before
// DAG from the command spans and causal flow events and prints the run's
// critical path, attributed to compute, queue-wait, offload service,
// network and idle/progress-gap time.
//
// Usage:
//
//	tracetool [-check] trace.json
//
// With -check the tool exits nonzero unless every virtual-time run's
// attribution sums exactly to the run's elapsed time — the analyzer's
// partition invariant, used by the CI smoke target.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpioffload/internal/obs/critpath"
)

func main() {
	check := flag.Bool("check", false, "fail unless each run's attribution sums to its elapsed time")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracetool [-check] trace.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	runs, err := critpath.ReadChrome(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if len(runs) == 0 {
		log.Fatal("tracetool: no runs in trace (was it exported with -trace?)")
	}
	bad := 0
	for _, rd := range runs {
		rep := critpath.AnalyzeRun(rd)
		fmt.Print(rep.Table())
		if rep.Sum() != rep.Total {
			bad++
			fmt.Printf("  MISMATCH: attribution sums to %d ns, elapsed is %d ns\n",
				rep.Sum(), rep.Total)
		}
	}
	if *check {
		if bad > 0 {
			log.Fatalf("tracetool: %d run(s) failed their checks", bad)
		}
		fmt.Printf("check ok: %d run(s), attribution sums match elapsed time\n", len(runs))
	}
}
