package cnn

import (
	"mpioffload/sim"

	"mpioffload/mpi"
)

// CNNEff is the fraction of peak flops the convolution kernels sustain.
const CNNEff = 0.5

// HybridConfig describes the hybrid-parallel training workload (§5.3):
// data parallelism for the convolutional stack (per-layer weight-gradient
// all-reduces, overlappable with back-propagation) and model parallelism
// for the fully-connected stack (synchronous activation all-to-alls).
type HybridConfig struct {
	// Minibatch is the global images per iteration (data parallelism
	// splits it over ranks).
	Minibatch int
	// ConvFlopsPerImage is the forward+backward flop count of the
	// convolutional stack per image.
	ConvFlopsPerImage float64
	// ConvGradBytes are the per-conv-layer weight-gradient sizes
	// (all-reduced across ranks each iteration).
	ConvGradBytes []int
	// FCBoundaries is the number of synchronous all-to-all activation
	// exchanges per iteration (forward + backward crossings of the
	// model-parallel fully-connected stack).
	FCBoundaries int
	// FCActBytesPerImage is the activation payload per image crossing one
	// boundary.
	FCActBytesPerImage int
	// FCFlopsPerImage is the fully-connected flop count per image
	// (model-parallel: divided over ranks).
	FCFlopsPerImage float64
}

// VGGLike returns a workload shaped like the paper's CNN: a deep
// convolutional stack (~60 MB of conv weight gradients, a few Gflop per
// image) and three model-parallel fully-connected boundary exchanges.
func VGGLike() HybridConfig {
	return HybridConfig{
		Minibatch:         256,
		ConvFlopsPerImage: 4.2e9,
		ConvGradBytes: []int{
			2 << 20, 9 << 20, 14 << 20, 18 << 20, 17 << 20, // ≈ 60 MB
		},
		FCBoundaries:       3,
		FCActBytesPerImage: 4096 * 4,
		FCFlopsPerImage:    0.23e9,
	}
}

// fwdFrac is the forward share of the conv compute (backward ≈ 2×).
const fwdFrac = 1.0 / 3

// RunHybrid executes warm+iters iterations of hybrid-parallel training and
// returns the average iteration time in nanoseconds. Per iteration:
// apply the previous iteration's gradients (waiting on their all-reduces —
// which have had the whole backward pass and this forward pass to
// progress), forward conv, FC all-to-alls, then backward conv posting each
// layer's gradient all-reduce as soon as it is available.
func RunHybrid(env *sim.Env, cfg HybridConfig, warm, iters int) float64 {
	c := env.World
	p := env.Profile()
	imgs := float64(cfg.Minibatch) / float64(c.Size())
	rate := p.ThreadFlops * env.EffectiveThreads() * CNNEff
	layers := len(cfg.ConvGradBytes)
	totalGrad := 0
	for _, b := range cfg.ConvGradBytes {
		totalGrad += b
	}

	var pending []*mpi.Request
	iter := func() {
		// Weight update: wait for last iteration's gradient exchanges.
		c.Waitall(pending...)
		pending = pending[:0]
		env.ComputeTime(float64(totalGrad) / (p.MemcpyBW * env.EffectiveThreads()))

		// Forward through the convolutional stack.
		fw := imgs * cfg.ConvFlopsPerImage * fwdFrac / rate
		env.ComputeWithProgress(fw, fw/8)

		// Model-parallel FC stack: synchronous all-to-alls.
		block := cfg.Minibatch * cfg.FCActBytesPerImage / (c.Size() * c.Size())
		if block < 64 {
			block = 64
		}
		fcCompute := float64(cfg.Minibatch) * cfg.FCFlopsPerImage / float64(c.Size()) / rate
		for b := 0; b < cfg.FCBoundaries; b++ {
			c.AlltoallBytes(block)
			env.ComputeTime(fcCompute / float64(cfg.FCBoundaries))
		}

		// Backward through the conv stack, posting each layer's gradient
		// all-reduce as soon as that layer's dW is complete.
		bwPer := imgs * cfg.ConvFlopsPerImage * (1 - fwdFrac) / float64(layers) / rate
		for l := layers - 1; l >= 0; l-- {
			env.ComputeWithProgress(bwPer, bwPer/4)
			r := c.IallreduceBytes(cfg.ConvGradBytes[l])
			pending = append(pending, &r)
		}
	}

	for i := 0; i < warm; i++ {
		iter()
		env.World.Barrier()
	}
	sum := 0.0
	for i := 0; i < iters; i++ {
		start := env.Now()
		iter()
		sum += float64(env.Now() - start)
		env.World.Barrier()
	}
	// Drain the final exchanges so the simulation ends cleanly.
	c.Waitall(pending...)
	return sum / float64(iters)
}

// ImagesPerSec converts an iteration time to training throughput.
func ImagesPerSec(cfg HybridConfig, perIterNs float64) float64 {
	return float64(cfg.Minibatch) / (perIterNs / 1e9)
}
