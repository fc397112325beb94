// Quickstart: build a 4-rank simulated cluster with the offload approach,
// exchange messages and run a collective — the smallest end-to-end use of
// the public API.
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
	res := sim.Run(sim.Config{Ranks: 4, Approach: sim.Offload}, func(env *sim.Env) {
		c := env.World
		me, n := env.Rank(), env.Size()

		// Ring exchange: send to the right, receive from the left.
		right, left := (me+1)%n, (me-1+n)%n
		msg := []byte(fmt.Sprintf("hello from rank %d", me))
		buf := make([]byte, 64)
		rr := c.Irecv(buf, left, 0)
		rs := c.Isend(msg, right, 0)
		st := c.Wait(&rr)
		c.Wait(&rs)
		fmt.Fprintf(w, "rank %d received %q (%d bytes) from rank %d\n",
			me, buf[:st.Count], st.Count, st.Source)

		// A global reduction.
		v := []float64{float64(me + 1)}
		c.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
		if me == 0 {
			fmt.Fprintf(w, "allreduce sum over ranks = %v\n", v[0])
		}
		c.Barrier()
	})
	fmt.Fprintf(w, "simulated time: %.2f µs, network: %d msgs / %d bytes\n",
		float64(res.Elapsed)/1000, res.Net.Msgs, res.Net.Bytes)
}
