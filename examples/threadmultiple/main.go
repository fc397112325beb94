// Threadmultiple: eight application threads per rank issue MPI calls
// concurrently (MPI_THREAD_MULTIPLE). Under the locked approaches every
// call serializes on the implementation's global lock; under offload each
// call is one lock-free enqueue — the paper's §3.3/Fig 6 story.
package main

import (
	"fmt"
	"io"
	"os"

	"mpioffload/sim"
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	const threads = 8
	const msgs = 20
	fmt.Fprintf(w, "%d threads per rank issuing concurrent sends (%d each)\n", threads, msgs)
	fmt.Fprintf(w, "%-10s %18s %18s\n", "approach", "mean latency (µs)", "total (µs)")

	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		var mean float64
		res := sim.Run(sim.Config{Ranks: 2, Approach: a, ThreadLevel: sim.Multiple}, func(env *sim.Env) {
			lat := make([]float64, threads)
			env.ParallelN(threads, func(th *sim.Thread) {
				c := th.Comm
				buf := make([]byte, 256)
				start := th.Now()
				for i := 0; i < msgs; i++ {
					tag := 1000*th.ID + i
					if env.Rank() == 0 {
						c.Send(buf, 1, tag)
						c.Recv(buf, 1, tag)
					} else {
						c.Recv(buf, 0, tag)
						c.Send(buf, 0, tag)
					}
				}
				lat[th.ID] = float64(th.Now()-start) / float64(msgs) / 2
			})
			if env.Rank() == 0 {
				sum := 0.0
				for _, l := range lat {
					sum += l
				}
				mean = sum / threads
			}
		})
		fmt.Fprintf(w, "%-10s %18.2f %18.1f\n", a, mean/1000, float64(res.Elapsed)/1000)
	}
}
