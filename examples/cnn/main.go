// CNN: data-parallel training of a small convolutional network on a
// synthetic pattern-classification task across 4 ranks, with per-layer
// gradient all-reduces (paper §5.3 at laptop scale). All ranks follow the
// same trajectory because gradients are averaged globally each step.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"mpioffload/apps/cnn"
	"mpioffload/sim"
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	const (
		ranks   = 4
		perRank = 4 // images per rank per step
		classes = 3
		steps   = 40
	)
	fmt.Fprintf(w, "data-parallel CNN training, %d ranks × %d images\n", ranks, perRank)

	sim.Run(sim.Config{Ranks: ranks, Approach: sim.Offload}, func(env *sim.Env) {
		// Synthetic task: classify which quadrant-pattern was stamped.
		rng := rand.New(rand.NewSource(100 + int64(env.Rank())))
		x := cnn.NewTensor(perRank, 1, 8, 8)
		labels := make([]int, perRank)
		for s := 0; s < perRank; s++ {
			labels[s] = rng.Intn(classes)
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					v := rng.NormFloat64() * 0.1
					if (i/4+j/4*2)%classes == labels[s] {
						v += 1
					}
					x.Set(s, 0, i, j, v)
				}
			}
		}

		net := &cnn.Network{Layers: []cnn.Layer{
			cnn.NewConv2D(rand.New(rand.NewSource(7)), 1, 6, 3, 1, 1),
			&cnn.ReLU{},
			&cnn.MaxPool{K: 2},
			cnn.NewFC(rand.New(rand.NewSource(8)), 6*4*4, classes),
		}}

		for s := 0; s <= steps; s++ {
			loss := net.DistStep(env.World, x, labels)
			if env.Rank() == 0 && s%10 == 0 {
				fmt.Fprintf(w, "step %3d  global loss %.4f\n", s, loss)
			}
			net.SGD(0.2)
		}
		env.World.Barrier()
	})
}
