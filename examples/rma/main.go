// RMA: one-sided communication (the paper's §7 future work) — a
// distributed histogram built with Accumulate. Get is pure RDMA,
// but Accumulate needs target-side software, so its timeliness depends on
// asynchronous progress: watch the offload approach apply remote updates
// while the target is busy computing.
package main

import (
	"fmt"
	"io"
	"os"

	"mpioffload/mpi"
	"mpioffload/sim"
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	const ranks = 4
	const bins = 8
	fmt.Fprintln(w, "one-sided histogram: every rank Accumulates into rank 0's window")
	fmt.Fprintf(w, "%-10s %14s  %s\n", "approach", "time (µs)", "histogram @ rank 0")

	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		var histo []float64
		res := sim.Run(sim.Config{Ranks: ranks, Approach: a}, func(env *sim.Env) {
			c := env.World
			local := make([]float64, bins)
			win := c.WinCreate(mpi.Float64Bytes(local))

			// Each rank contributes counts to a few bins, one-sided.
			contrib := make([]float64, bins)
			for b := 0; b < bins; b++ {
				if (b+env.Rank())%2 == 0 {
					contrib[b] = float64(env.Rank() + 1)
				}
			}
			win.Accumulate(mpi.Float64Bytes(contrib), 0, 0, mpi.SumFloat64)
			env.Compute(1e6) // rank 0 computes; its updates need progress
			win.Fence()

			if env.Rank() == 0 {
				histo = append([]float64(nil), local...)
			}

			// Everyone reads the result back one-sided.
			snapshot := make([]float64, bins)
			win.Get(mpi.Float64Bytes(snapshot), 0, 0)
			win.Fence()
			total := 0.0
			for _, v := range snapshot {
				total += v
			}
			if total == 0 {
				panic("Get returned an empty histogram")
			}
		})
		fmt.Fprintf(w, "%-10s %14.2f  %v\n", a, float64(res.Elapsed)/1000, histo)
	}
}
