// Stencil: the paper's Listing 1 motif — a 2-D heat-diffusion stencil with
// nonblocking halo exchange overlapped with interior computation — run
// under every approach, showing how much of the wait time each one hides.
package main

import (
	"fmt"
	"io"
	"os"

	"mpioffload/mpi"
	"mpioffload/sim"
)

const (
	ranks = 4
	rows  = 64 // rows per rank
	cols  = 256
	steps = 20
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	fmt.Fprintln(w, "2-D heat stencil, halo exchange overlapped with interior compute")
	fmt.Fprintf(w, "%-10s %12s %12s %14s\n", "approach", "post (µs)", "wait (µs)", "checksum")
	for _, a := range []sim.Approach{sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload} {
		var post, wait float64
		var sum float64
		sim.Run(sim.Config{Ranks: ranks, Approach: a}, func(env *sim.Env) {
			c := env.World
			me, n := env.Rank(), env.Size()
			up, down := (me-1+n)%n, (me+1)%n

			// grid has one halo row above and below.
			grid := make([]float64, (rows+2)*cols)
			next := make([]float64, (rows+2)*cols)
			for j := 0; j < cols; j++ {
				grid[(1)*cols+j] = float64(me + 1) // heat source in first row
			}

			for s := 0; s < steps; s++ {
				t0 := env.Now()
				rUp := c.Irecv(mpi.Float64Bytes(grid[:cols]), up, 0)
				rDn := c.Irecv(mpi.Float64Bytes(grid[(rows+1)*cols:]), down, 1)
				sUp := c.Isend(mpi.Float64Bytes(grid[cols:2*cols]), up, 1)
				sDn := c.Isend(mpi.Float64Bytes(grid[rows*cols:(rows+1)*cols]), down, 0)
				t1 := env.Now()

				// Interior rows (2..rows-1) while halos are in flight.
				relax := func(i int) {
					for j := 1; j < cols-1; j++ {
						next[i*cols+j] = 0.25 * (grid[(i-1)*cols+j] + grid[(i+1)*cols+j] +
							grid[i*cols+j-1] + grid[i*cols+j+1])
					}
				}
				for i := 2; i < rows; i++ {
					relax(i)
					env.Progress() // the iprobe hook
				}
				// Model a heavier physics update per point so there is
				// real computation to overlap with the halo exchange.
				env.Compute(float64(400 * (rows - 2) * cols))

				t2 := env.Now()
				c.Waitall(&rUp, &rDn, &sUp, &sDn)
				t3 := env.Now()

				relax(1)
				relax(rows)
				env.Compute(float64(400 * 2 * cols))
				grid, next = next, grid

				if env.Rank() == 0 {
					post += float64(t1 - t0)
					wait += float64(t3 - t2)
				}
			}
			local := 0.0
			for i := 1; i <= rows; i++ {
				for j := 0; j < cols; j++ {
					local += grid[i*cols+j]
				}
			}
			v := []float64{local}
			c.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
			if env.Rank() == 0 {
				sum = v[0]
			}
		})
		fmt.Fprintf(w, "%-10s %12.2f %12.2f %14.6f\n", a, post/1000, wait/1000, sum)
	}
}
