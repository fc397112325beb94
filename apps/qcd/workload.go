package qcd

import (
	"sort"

	"mpioffload/mpi"
	"mpioffload/sim"
)

// DslashEff is the fraction of peak flops the Dslash kernel sustains
// (memory-bound stencil; calibrated so the 8-node internal-compute time of
// Table 1 lands near the paper's 3.4 ms).
const DslashEff = 0.9

// packEff is the fraction of aggregate memcpy bandwidth achieved by the
// threaded boundary pack/unpack (the paper's "misc" time).
const packEff = 0.5

// TimeSplit is one row of the paper's Table 1: where an average Dslash
// iteration spends its time on rank 0 (all values in nanoseconds).
type TimeSplit struct {
	Internal float64
	Post     float64
	Wait     float64
	Misc     float64
	Total    float64
}

// Workload is the per-rank Dslash workload model: the real decomposition's
// message sizes and flop counts, driven over the simulated cluster with
// phantom payloads.
type Workload struct {
	G *Geom
	// dirs lists the communicating directions: (dim, ±1) per split dim.
	dirs []dir
}

type dir struct {
	d     int
	sign  int
	peer  int
	bytes int
	tag   int
}

// NewWorkload builds the workload for one rank of an L lattice over the
// world communicator's size.
func NewWorkload(L [Nd]int, size, rank int) *Workload {
	grid := ChooseGrid(L, size)
	g := NewGeom(L, grid, rank)
	w := &Workload{G: g}
	tag := 0
	for d := 0; d < Nd; d++ {
		if grid[d] == 1 {
			continue
		}
		// Production Dslash ships spin-projected half spinors per face
		// site (§5.1, QPhiX-style).
		bytes := g.FaceSites(d) * HalfSpinorBytes
		w.dirs = append(w.dirs,
			dir{d: d, sign: -1, peer: g.Neighbor(d, -1), bytes: bytes, tag: 2 * tag},
			dir{d: d, sign: +1, peer: g.Neighbor(d, +1), bytes: bytes, tag: 2*tag + 1},
		)
		tag++
	}
	return w
}

// BoundarySites counts sites with a neighbour in another rank's domain.
func (w *Workload) BoundarySites() int {
	in := w.G.Volume()
	for d := 0; d < Nd; d++ {
		if w.G.Grid[d] > 1 {
			in = in / w.G.Local[d] * (w.G.Local[d] - 2)
		}
	}
	return w.G.Volume() - in
}

// FaceBytesTotal is the number of bytes sent per iteration.
func (w *Workload) FaceBytesTotal() int {
	total := 0
	for _, d := range w.dirs {
		total += d.bytes
	}
	return total
}

// MaxFaceBytes is the largest single message in the exchange.
func (w *Workload) MaxFaceBytes() int {
	m := 0
	for _, d := range w.dirs {
		if d.bytes > m {
			m = d.bytes
		}
	}
	return m
}

// computeTime converts a flop count into the duration the rank's thread
// team needs at the Dslash efficiency (Env.Compute's accounting, including
// the share lost to dedicated communication threads).
func computeTime(env *sim.Env, flops float64) float64 {
	return flops / (env.Profile().ThreadFlops * env.EffectiveThreads() * DslashEff)
}

// Iteration runs one modelled Dslash iteration and returns its time split.
func (w *Workload) Iteration(env *sim.Env) TimeSplit {
	var ts TimeSplit
	c := env.World
	p := env.Profile()
	start := env.Now()

	// Boundary pack (threaded memcpy) — misc.
	packBW := p.MemcpyBW * env.EffectiveThreads() * packEff
	env.ComputeTime(float64(w.FaceBytesTotal()) / packBW)
	t0 := env.Now()
	ts.Misc += float64(t0 - start)

	// Post the halo exchange (Listing 1 line 6).
	reqs := make([]*mpi.Request, 0, 2*len(w.dirs))
	for _, d := range w.dirs {
		r := c.IrecvBytes(d.bytes, d.peer, d.tag^1)
		reqs = append(reqs, &r)
	}
	for _, d := range w.dirs {
		r := c.IsendBytes(d.bytes, d.peer, d.tag)
		reqs = append(reqs, &r)
	}
	t1 := env.Now()
	ts.Post = float64(t1 - t0)

	// Internal volume processing (lines 7–17), with the iprobe hook.
	interior := float64(w.G.Volume() - w.BoundarySites())
	internal := computeTime(env, interior*SiteFlops)
	env.ComputeWithProgress(internal, internal/8)
	t2 := env.Now()
	ts.Internal = float64(t2 - t1)

	// Wait for the boundary exchange (line 18).
	c.Waitall(reqs...)
	t3 := env.Now()
	ts.Wait = float64(t3 - t2)

	// Unpack + thread barrier are misc (Table 1's definition: "boundary
	// processing such as pack and unpack operations and barrier time");
	// the boundary site compute itself counts as internal compute.
	env.ComputeTime(float64(w.FaceBytesTotal()) / packBW)
	env.ComputeTime(p.OMPBarrier)
	t4 := env.Now()
	ts.Misc += float64(t4 - t3)
	boundary := computeTime(env, float64(w.BoundarySites())*SiteFlops)
	env.ComputeTime(boundary)
	ts.Internal += float64(env.Now() - t4)
	ts.Total = float64(env.Now() - start)
	return ts
}

// RunDslash runs warm+measured iterations of the Dslash model and returns
// the average time split (valid on every rank; the tables report rank 0).
func RunDslash(env *sim.Env, L [Nd]int, warm, iters int) TimeSplit {
	w := NewWorkload(L, env.Size(), env.Rank())
	for i := 0; i < warm; i++ {
		w.Iteration(env)
		env.World.Barrier()
	}
	var sum TimeSplit
	for i := 0; i < iters; i++ {
		ts := w.Iteration(env)
		sum.Internal += ts.Internal
		sum.Post += ts.Post
		sum.Wait += ts.Wait
		sum.Misc += ts.Misc
		sum.Total += ts.Total
		env.World.Barrier()
	}
	n := float64(iters)
	return TimeSplit{
		Internal: sum.Internal / n, Post: sum.Post / n,
		Wait: sum.Wait / n, Misc: sum.Misc / n, Total: sum.Total / n,
	}
}

// Tflops converts a per-iteration Dslash time into delivered TFLOP/s for
// the whole machine.
func Tflops(L [Nd]int, perIterNs float64) float64 {
	v := float64(L[0] * L[1] * L[2] * L[3])
	return v * SiteFlops / perIterNs / 1000
}

// SolverSplit extends the Dslash model to one CG iteration of the full
// solver (Fig 11): two Dslash applications (M and M†), BLAS-1 vector work,
// and the inner-product MPI_Allreduce latency that limits solver scaling.
func SolverIteration(env *sim.Env, w *Workload) float64 {
	start := env.Now()
	// Two fermion-matrix applications per CG iteration.
	for i := 0; i < 2; i++ {
		w.Iteration(env)
	}
	// BLAS-1: ~6 vector ops of 24 floats/site, memory-bound.
	p := env.Profile()
	bytes := float64(w.G.Volume()) * SpinorBytes * 6
	env.ComputeTime(bytes / (p.MemcpyBW * env.EffectiveThreads()))
	// Three global reductions (α, β, |r|²) of one complex/real scalar.
	for i := 0; i < 3; i++ {
		v := []float64{1, 2}
		env.World.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
	}
	return float64(env.Now() - start)
}

// RunSolver measures the average modelled CG-iteration time.
func RunSolver(env *sim.Env, L [Nd]int, warm, iters int) float64 {
	w := NewWorkload(L, env.Size(), env.Rank())
	for i := 0; i < warm; i++ {
		SolverIteration(env, w)
		env.World.Barrier()
	}
	sum := 0.0
	for i := 0; i < iters; i++ {
		sum += SolverIteration(env, w)
		env.World.Barrier()
	}
	return sum / float64(iters)
}

// SolverTflops converts a CG-iteration time to delivered TFLOP/s (two
// Dslash applications plus ~10% linear algebra per iteration).
func SolverTflops(L [Nd]int, perIterNs float64) float64 {
	v := float64(L[0] * L[1] * L[2] * L[3])
	flops := v * (2*SiteFlops + 0.1*2*SiteFlops)
	return flops / perIterNs / 1000
}

// RunDslashThreadGroups models the Fig 12 experiment: the Wilson-Dslash
// communication restructured with the thread-groups library so that
// `groups` application threads issue their directions' MPI calls
// concurrently (MPI_THREAD_MULTIPLE), each overlapping its own wait with
// its share of the compute. It returns the average iteration time.
func RunDslashThreadGroups(env *sim.Env, L [Nd]int, groups, warm, iters int) float64 {
	w := NewWorkload(L, env.Size(), env.Rank())
	if groups < 1 {
		groups = 1
	}
	if groups > len(w.dirs) && len(w.dirs) > 0 {
		groups = len(w.dirs)
	}
	p := env.Profile()
	gf := float64(groups)
	run := func() {
		// Each group owns a subset of the directions end-to-end: it packs
		// them, posts them, overlaps its interior-compute share, waits for
		// *its own* messages only, then unpacks and computes its boundary
		// share. Groups whose messages arrive early therefore run their
		// boundary processing while other groups are still waiting — the
		// pipelining the thread-groups library enables (§5.1, Fig 12).
		interior := float64(w.G.Volume()-w.BoundarySites()) * SiteFlops
		perGroup := computeTime(env, interior) // flops/g on threads/g
		groupBW := p.MemcpyBW * env.EffectiveThreads() * packEff / gf
		boundarySpan := computeTime(env, float64(w.BoundarySites())*SiteFlops)
		totalBytes := float64(w.FaceBytesTotal())
		owner := assignDirs(w.dirs, groups)
		env.ParallelN(groups, func(th *sim.Thread) {
			c := th.Comm
			type inflight struct {
				d          dir
				recv, send mpi.Request
			}
			var mine []inflight
			myBytes := 0
			for i, d := range w.dirs {
				if owner[i] == th.ID {
					mine = append(mine, inflight{d: d})
					myBytes += d.bytes
				}
			}
			th.ComputeTime(float64(myBytes) / groupBW) // pack own faces
			for i := range mine {
				d := mine[i].d
				mine[i].recv = c.IrecvBytes(d.bytes, d.peer, d.tag^1)
				mine[i].send = c.IsendBytes(d.bytes, d.peer, d.tag)
			}
			th.ComputeTime(perGroup) // interior-compute share
			// Process each direction as it completes: unpack and compute
			// its boundary slab while later directions are still in
			// flight — the fine-grained pipelining that funneled code
			// (wait-for-all, then process-all) cannot express.
			for i := range mine {
				c.Waitall(&mine[i].recv, &mine[i].send)
				share := float64(mine[i].d.bytes) / totalBytes
				th.ComputeTime(float64(mine[i].d.bytes) / groupBW)
				th.ComputeTime(boundarySpan * share * gf)
			}
		})
		env.ComputeTime(p.OMPBarrier)
	}
	for i := 0; i < warm; i++ {
		run()
		env.World.Barrier()
	}
	sum := 0.0
	for i := 0; i < iters; i++ {
		start := env.Now()
		run()
		sum += float64(env.Now() - start)
		env.World.Barrier()
	}
	return sum / float64(iters)
}

// assignDirs statically balances directions over thread groups by bytes
// (longest-processing-time-first), as the thread-groups library does when
// carving up the communication work.
func assignDirs(dirs []dir, groups int) []int {
	order := make([]int, len(dirs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dirs[order[a]].bytes > dirs[order[b]].bytes })
	load := make([]int, groups)
	owner := make([]int, len(dirs))
	for _, i := range order {
		g := 0
		for j := 1; j < groups; j++ {
			if load[j] < load[g] {
				g = j
			}
		}
		owner[i] = g
		load[g] += dirs[i].bytes
	}
	return owner
}
