package main

import (
	"fmt"
	"io"
	"math"
)

// compareSets runs the end-to-end pass n times, each workload in its own
// child process, and prints for every workload and metric the values of
// the sets, the largest relative difference between two sets in the
// worsening direction, and the bound. It reports whether every difference
// stayed inside its bound with no failed operation — the test a later
// issue's claim has to pass on one commit before it compares two.
func compareSets(out io.Writer, n int, cfg runConfig) bool {
	// Sets alternate within a workload, so that the runs compared are
	// seconds apart and a slow stretch of the host falls on both.
	all := make([]map[string]report, n)
	for s := range all {
		all[s] = map[string]report{}
	}
	ok := true
	for _, w := range workloads {
		for s := 0; s < n; s++ {
			rep, err := runChild(w.Name, cfg, nil)
			if err != nil {
				fatal(err)
			}
			all[s][w.Name] = rep
			if !rep.Correct {
				fmt.Fprintf(out, "set %d: %s: %d of %d operations failed\n", s+1, w.Name, rep.Failed, rep.Attempted)
				ok = false
			}
		}
	}
	fmt.Fprintf(out, "%-22s %-12s %s  %9s %7s\n", "workload", "metric", "values", "diff", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			vals := ""
			for s := 0; s < n; s++ {
				v := all[s][w.Name].Metrics[m.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals += fmt.Sprintf(" %12.6g", v)
			}
			// The worse value relative to the better one, as the driver
			// judges a change against its parent.
			diff := (hi - lo) / lo
			if m.Better == "higher" {
				diff = (hi - lo) / hi
			}
			verdict := ""
			if diff > m.Bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Fprintf(out, "%-22s %-12s%s  %8.2f%% %6.0f%%%s\n", w.Name, m.Name, vals, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
