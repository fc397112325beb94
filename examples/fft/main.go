// FFT: compute a distributed 1-D FFT of a synthetic signal over 8 ranks
// (the paper's three all-to-all Cooley-Tukey factorization, §5.2), verify
// it against the serial transform, and compare approaches.
package main

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"os"

	"mpioffload/apps/fft"
	"mpioffload/sim"
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	const n = 1 << 14
	const ranks = 8

	// Two tones plus a DC offset.
	signal := make([]complex128, n)
	for i := range signal {
		th := 2 * math.Pi * float64(i) / float64(n)
		signal[i] = complex(0.5+math.Sin(37*th)+0.25*math.Cos(411*th), 0)
	}
	want := append([]complex128(nil), signal...)
	fft.FFT(want)

	fmt.Fprintf(w, "distributed 1-D FFT, N=%d over %d ranks\n", n, ranks)
	fmt.Fprintf(w, "%-10s %14s %12s\n", "approach", "max error", "time (µs)")
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		got := make([]complex128, n)
		res := sim.Run(sim.Config{Ranks: ranks, Approach: a}, func(env *sim.Env) {
			m := n / env.Size()
			local := make([]complex128, m)
			copy(local, signal[env.Rank()*m:(env.Rank()+1)*m])
			fft.Dist(env.World, local)
			copy(got[env.Rank()*m:(env.Rank()+1)*m], local)
			env.World.Barrier()
		})
		maxe := 0.0
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > maxe {
				maxe = d
			}
		}
		fmt.Fprintf(w, "%-10s %14.3e %12.1f\n", a, maxe, float64(res.Elapsed)/1000)
	}

	// Show the detected tones from the serial reference.
	fmt.Fprintln(w, "dominant bins:", topBins(want, 3))
}

func topBins(x []complex128, k int) []int {
	idx := make([]int, 0, k)
	for len(idx) < k {
		best, bi := -1.0, -1
		for i := 0; i <= len(x)/2; i++ {
			skip := false
			for _, j := range idx {
				if i == j {
					skip = true
				}
			}
			if skip {
				continue
			}
			if a := cmplx.Abs(x[i]); a > best {
				best, bi = a, i
			}
		}
		idx = append(idx, bi)
	}
	return idx
}
