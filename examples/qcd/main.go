// QCD: solve a Wilson-fermion linear system with CG on a small 4-D
// lattice, domain-decomposed over 4 ranks, comparing the approaches —
// real SU(3)×spinor arithmetic with real halo exchange (paper §5.1 at
// laptop scale).
package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"mpioffload/apps/qcd"
	"mpioffload/sim"
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	L := [qcd.Nd]int{8, 8, 8, 8}
	const ranks = 4
	grid := qcd.ChooseGrid(L, ranks)
	fmt.Fprintf(w, "Wilson CG solve on %v lattice, %d ranks (grid %v)\n", L, ranks, grid)
	fmt.Fprintf(w, "%-10s %10s %14s %14s\n", "approach", "CG iters", "residual", "time (ms)")

	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		var iters int
		var resid float64
		res := sim.Run(sim.Config{Ranks: ranks, Approach: a}, func(env *sim.Env) {
			g := qcd.NewGeom(L, grid, env.Rank())
			rng := rand.New(rand.NewSource(1 + int64(env.Rank())))
			u := qcd.NewGauge(g)
			u.Randomize(rng)
			qcd.ExchangeGaugeHalos(env.World, u)
			w := qcd.NewWilson(g, u, 0.08, env.World)
			if a == sim.Iprobe {
				w.Progress = env.Progress
			}
			b := qcd.NewField(g)
			b.Randomize(rng)
			x := qcd.NewField(g)
			it := qcd.SolveCG(w, x, b, 1e-6, 500)

			mx := qcd.NewField(g)
			w.Apply(mx, x)
			g2 := 0.0
			_ = g2
			diff := qcd.NewField(g)
			for i := range mx.S {
				diff.S[i] = mx.S[i].Sub(b.S[i])
			}
			r := math.Sqrt(qcd.Norm2(env.World, diff) / qcd.Norm2(env.World, b))
			if env.Rank() == 0 {
				iters, resid = it, r
			}
			env.World.Barrier()
		})
		fmt.Fprintf(w, "%-10s %10d %14.3e %14.3f\n", a, iters, resid, float64(res.Elapsed)/1e6)
	}
}
