package fft

import (
	"mpioffload/mpi"
	"mpioffload/sim"
)

// FFTEff is the effective fraction of peak flops the SOI FFT compute
// stages sustain, folding in both the kernel's arithmetic efficiency and
// the SOI algorithm's extra computation (it trades flops for fewer
// all-to-alls). Calibrated so Table 2's ~310 ms internal compute at
// 2^25 points/node on Xeon Phi is reproduced.
const FFTEff = 0.11

// stage1Frac is the fraction of the compute performed before the exchange
// (the per-segment convolution stage); the rest is the epilogue transform.
const stage1Frac = 0.6

// miscPasses and miscBWScale model the local data-reshuffle passes
// (gather/scatter of segments, local transposes) counted as "misc" in
// Table 2: miscPasses full passes over the local data at a strided-copy
// bandwidth of miscBWScale × the profile's streaming memcpy bandwidth.
const (
	miscPasses  = 2.0
	miscBWScale = 2.5
)

// Split is one row of the paper's Table 2 (values in nanoseconds).
type Split struct {
	Internal float64
	Post     float64
	Wait     float64
	Misc     float64
	Total    float64
}

// RunPipelined executes warm+iters iterations of the SOI-style pipelined
// 1-D FFT workload model: the local input is partitioned into `segments`
// segments; each segment's first-stage compute is followed immediately by
// posting its (nonblocking, phantom) all-to-all, so communication of
// earlier segments can overlap computation of later ones — when something
// drives progress. One all-to-all total per segment (the SOI property);
// points is the per-rank input size in complex128 elements.
func RunPipelined(env *sim.Env, points, segments, warm, iters int) Split {
	run := func() Split {
		var sp Split
		c := env.World
		p := env.Profile()
		n := c.Size()
		start := env.Now()

		totalFlops := Flops(points*n) / float64(n) // this rank's share
		segFlops := totalFlops * stage1Frac / float64(segments)
		segBytes := points * 16 / segments
		blockBytes := segBytes / n
		if blockBytes < 1 {
			blockBytes = 1
		}
		rate := p.ThreadFlops * env.EffectiveThreads() * FFTEff

		reqs := make([]*mpi.Request, 0, segments)
		for s := 0; s < segments; s++ {
			// Stage-1 compute for this segment (iprobe hook inside).
			t0 := env.Now()
			dur := segFlops / rate
			env.ComputeWithProgress(dur, dur/4)
			t1 := env.Now()
			sp.Internal += float64(t1 - t0)
			// Post the segment's all-to-all.
			r := c.IalltoallBytes(blockBytes)
			reqs = append(reqs, &r)
			sp.Post += float64(env.Now() - t1)
		}
		// Wait for every segment's exchange.
		t2 := env.Now()
		c.Waitall(reqs...)
		t3 := env.Now()
		sp.Wait = float64(t3 - t2)

		// Epilogue transform on the exchanged data.
		dur := totalFlops * (1 - stage1Frac) / rate
		env.ComputeWithProgress(dur, dur/4)
		sp.Internal += float64(env.Now() - t3)

		// Local reshuffles (gather/scatter of segments, transposes).
		t4 := env.Now()
		miscBW := p.MemcpyBW * miscBWScale
		env.ComputeTime(miscPasses * float64(points*16) / miscBW)
		sp.Misc = float64(env.Now() - t4)
		sp.Total = float64(env.Now() - start)
		return sp
	}
	for i := 0; i < warm; i++ {
		run()
		env.World.Barrier()
	}
	var sum Split
	for i := 0; i < iters; i++ {
		sp := run()
		sum.Internal += sp.Internal
		sum.Post += sp.Post
		sum.Wait += sp.Wait
		sum.Misc += sp.Misc
		sum.Total += sp.Total
		env.World.Barrier()
	}
	f := float64(iters)
	return Split{
		Internal: sum.Internal / f, Post: sum.Post / f, Wait: sum.Wait / f,
		Misc: sum.Misc / f, Total: sum.Total / f,
	}
}

// Gflops converts a per-iteration time into delivered GFLOP/s for the
// whole cluster, using the standard 5·N·log₂N transform count (not the
// SOI algorithm's inflated flops).
func Gflops(globalPoints int, perIterNs float64) float64 {
	return Flops(globalPoints) / perIterNs
}
