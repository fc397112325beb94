// Package bench implements the paper's microbenchmark methodology (§4):
// the compute-communication overlap benchmark, OSU-style latency and
// bandwidth tests, nonblocking call-overhead measurement, and the
// multithreaded (MPI_THREAD_MULTIPLE) latency test — each runnable under
// any approach and platform profile, plus plain-text/CSV table printers
// used by the cmd/ drivers to regenerate every figure and table.
package bench

import (
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/vclock"
	"mpioffload/mpi"
	"mpioffload/sim"
)

// interNode pins every rank to its own physical node, as in the paper's
// microbenchmark setup ("on 2 Endeavor Xeon nodes", "on 16 nodes"): the
// traffic under test crosses the real interconnect, never shared memory.
func interNode(cfg sim.Config) sim.Config {
	p := cfg.Profile
	if p == nil {
		p = model.Endeavor()
	}
	c := *p
	c.RanksPerNode = 1
	cfg.Profile = &c
	return cfg
}

// sweep runs program once per point of a sweep axis (message sizes,
// collective kinds) on `ranks` ranks, each on its own node; the program
// fills in the point's result on rank 0.
func sweep[P, R any](cfg sim.Config, ranks int, axis []P, program func(env *Env, p P, out *R)) []R {
	cfg = interNode(cfg)
	cfg.Ranks = ranks
	out := make([]R, len(axis))
	for i, p := range axis {
		Run(cfg, func(env *Env) { program(env, p, &out[i]) })
	}
	return out
}

// DefaultSizes is the message-size sweep used by the paper's
// microbenchmark figures (8 B – 4 MB).
var DefaultSizes = []int{8, 64, 512, 4 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 4 << 20}

// OverlapResult is one row of the paper's Fig 2: post, overlap and wait
// time as a percentage of pure communication time, per message size.
type OverlapResult struct {
	Size       int
	CommNs     float64 // pure communication time (4 calls, no compute)
	PostPct    float64
	OverlapPct float64
	WaitPct    float64
}

// OverlapP2P runs the §4.1 point-to-point overlap benchmark between two
// ranks: each process posts Irecv+Isend to the other, and the second pass
// inserts computation equal to the measured communication time between the
// Isend and the first Wait. Overlap is the reduction in wait time.
func OverlapP2P(cfg sim.Config, sizes []int, iters int) []OverlapResult {
	return sweep(cfg, 2, sizes, func(env *Env, size int, res *OverlapResult) {
		overlapOne(env, size, iters, res)
	})
}

// Env is re-exported for benchmark closures.
type Env = sim.Env

func overlapOne(env *Env, size, iters int, res *OverlapResult) {
	c := env.World
	peer := 1 - env.Rank()
	sbuf := make([]byte, size)
	rbuf := make([]byte, size)
	tag := 0
	exchange := func(compute float64) (post, wait, total float64) {
		start := env.Now()
		rr := c.Irecv(rbuf, peer, tag)
		rs := c.Isend(sbuf, peer, tag)
		post = float64(env.Now() - start)
		if compute > 0 {
			env.ComputeWithProgress(compute, compute/16)
		}
		wstart := env.Now()
		c.Wait(&rr)
		c.Wait(&rs)
		wait = float64(env.Now() - wstart)
		total = float64(env.Now()-start) - compute
		tag++
		c.Barrier()
		return post, wait, total
	}
	// Warmup.
	for i := 0; i < 2; i++ {
		exchange(0)
	}
	var post1, wait1, comm float64
	for i := 0; i < iters; i++ {
		p, w, tt := exchange(0)
		post1 += p
		wait1 += w
		comm += tt
	}
	post1 /= float64(iters)
	wait1 /= float64(iters)
	comm /= float64(iters)

	var wait2 float64
	for i := 0; i < iters; i++ {
		_, w, _ := exchange(comm)
		wait2 += w
	}
	wait2 /= float64(iters)

	if env.Rank() == 0 {
		overlap := wait1 - wait2
		if overlap < 0 {
			overlap = 0
		}
		*res = OverlapResult{
			Size:       size,
			CommNs:     comm,
			PostPct:    pct(post1, comm),
			OverlapPct: pct(overlap, comm),
			WaitPct:    pct(wait2, comm),
		}
	}
}

func pct(x, of float64) float64 {
	if of <= 0 {
		return 0
	}
	p := 100 * x / of
	if p > 100 {
		p = 100
	}
	return p
}

// PostTimeResult is one row of Fig 4: the time an application thread
// spends inside a nonblocking MPI_Isend, per message size.
type PostTimeResult struct {
	Size   int
	PostNs float64
}

// IsendPostTime measures the Isend call time in an OSU-style ping-pong
// with nonblocking calls (paper §4.2, Fig 4).
func IsendPostTime(cfg sim.Config, sizes []int, iters int) []PostTimeResult {
	return sweep(cfg, 2, sizes, func(env *Env, size int, res *PostTimeResult) {
		c := env.World
		peer := 1 - env.Rank()
		sbuf := make([]byte, size)
		rbuf := make([]byte, size)
		sum, n := 0.0, 0
		for i := 0; i < iters+2; i++ {
			rr := c.Irecv(rbuf, peer, i)
			t0 := env.Now()
			rs := c.Isend(sbuf, peer, i)
			dt := float64(env.Now() - t0)
			c.Waitall(&rr, &rs)
			c.Barrier()
			if i >= 2 { // skip warmup
				sum += dt
				n++
			}
		}
		if env.Rank() == 0 {
			*res = PostTimeResult{Size: size, PostNs: sum / float64(n)}
		}
	})
}

// LatencyResult is one row of Fig 6, 7a or 8a: OSU one-way latency.
type LatencyResult struct {
	Size      int
	LatencyNs float64
}

// pingPong is the OSU latency loop both latency tests share: iters timed
// blocking round trips (after two warm-up ones) between ranks 0 and 1 on
// tags tagBase+i; it returns the mean one-way latency.
func pingPong(c *mpi.Comm, rank int, now func() vclock.Time, buf []byte, tagBase, iters int) float64 {
	start := now()
	for i := 0; i < iters+2; i++ {
		if i == 2 {
			start = now()
		}
		if rank == 0 {
			c.Send(buf, 1, tagBase+i)
			c.Recv(buf, 1, tagBase+i)
		} else {
			c.Recv(buf, 0, tagBase+i)
			c.Send(buf, 0, tagBase+i)
		}
	}
	return float64(now()-start) / float64(iters) / 2
}

// OSULatency runs the standard OSU ping-pong latency test with blocking
// Send/Recv and reports one-way latency (§4.5).
func OSULatency(cfg sim.Config, sizes []int, iters int) []LatencyResult {
	return sweep(cfg, 2, sizes, func(env *Env, size int, res *LatencyResult) {
		lat := pingPong(env.World, env.Rank(), env.Now, make([]byte, size), 0, iters)
		if env.Rank() == 0 {
			*res = LatencyResult{Size: size, LatencyNs: lat}
		}
	})
}

// BandwidthResult is one row of Fig 7b/8b: OSU unidirectional bandwidth.
type BandwidthResult struct {
	Size int
	GBps float64 // bytes per nanosecond == GB/s
}

// OSUBandwidth runs the OSU unidirectional bandwidth test: windows of
// nonblocking sends answered by a single ack (§4.5).
func OSUBandwidth(cfg sim.Config, sizes []int, window, windows int) []BandwidthResult {
	return sweep(cfg, 2, sizes, func(env *Env, size int, res *BandwidthResult) {
		c := env.World
		bufs := make([][]byte, window)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		ack := make([]byte, 4)
		start := env.Now()
		for w := 0; w < windows; w++ {
			reqs := make([]*mpi.Request, window)
			if env.Rank() == 0 {
				for i := 0; i < window; i++ {
					r := c.Isend(bufs[i], 1, w)
					reqs[i] = &r
				}
				c.Waitall(reqs...)
				c.Recv(ack, 1, 1_000_000+w)
			} else {
				for i := 0; i < window; i++ {
					r := c.Irecv(bufs[i], 0, w)
					reqs[i] = &r
				}
				c.Waitall(reqs...)
				c.Send(ack, 0, 1_000_000+w)
			}
		}
		if env.Rank() == 0 {
			elapsed := float64(env.Now() - start)
			*res = BandwidthResult{Size: size, GBps: float64(size*window*windows) / elapsed}
		}
	})
}

// mean averages per-thread samples.
func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// OSUMultithreadedLatency runs the OSU multithreaded latency benchmark
// (§4.4, Fig 6): `threads` pairs of threads (one per rank) ping-pong in
// parallel under MPI_THREAD_MULTIPLE; the mean one-way latency is
// reported.
func OSUMultithreadedLatency(cfg sim.Config, threads int, sizes []int, iters int) []LatencyResult {
	cfg.ThreadLevel = sim.Multiple
	return sweep(cfg, 2, sizes, func(env *Env, size int, res *LatencyResult) {
		lat := make([]float64, threads)
		env.ParallelN(threads, func(th *sim.Thread) {
			lat[th.ID] = pingPong(th.Comm, env.Rank(), th.Now, make([]byte, size), 10_000*(th.ID+1), iters)
		})
		if env.Rank() == 0 {
			*res = LatencyResult{Size: size, LatencyNs: mean(lat)}
		}
	})
}

// MTScaleResult is one row of the enqueue-scaling sweep: the mean
// application-side post cost with a given number of concurrently
// submitting threads per rank. Under offload this must stay flat at
// EnqueueCost — the sharded command queue gives every registered thread a
// private SPSC shard, so adding submitters adds no serialization.
type MTScaleResult struct {
	Threads   int     `json:"threads"`
	PostNs    float64 `json:"post_ns"`
	MeanBatch float64 `json:"mean_batch"`
}

// mtPosts is the enqueue-scaling sweep's workload: on two ranks under
// MPI_THREAD_MULTIPLE, `threads` threads of rank 0 each post `iters`
// 64-byte Isends against matching Irecvs on rank 1, waiting for each
// before the next. It returns the mean time inside Isend and the run.
func mtPosts(cfg sim.Config, threads, iters int) (post float64, res sim.Result) {
	// A trace recorder activates the offload thread's duty-cycle
	// accounting, which is where MeanBatch comes from.
	cfg.Trace = obs.NewTrace(obs.Options{})
	res = Run(cfg, func(env *Env) {
		perThread := make([]float64, threads)
		env.ParallelN(threads, func(th *sim.Thread) {
			c := th.Comm
			buf := make([]byte, 64)
			tagBase := 10_000 * (th.ID + 1)
			sum := 0.0
			for i := 0; i < iters; i++ {
				var req mpi.Request
				if env.Rank() == 0 {
					t0 := th.Now()
					req = c.Isend(buf, 1, tagBase+i)
					sum += float64(th.Now() - t0)
				} else {
					req = c.Irecv(buf, 0, tagBase+i)
				}
				c.Wait(&req)
			}
			perThread[th.ID] = sum
		})
		if env.Rank() == 0 {
			post = mean(perThread) / float64(iters)
		}
	})
	return post, res
}

// MTPostScaling measures the mean Isend post time as the submitting
// thread count grows (the enqueue half of Fig 6's contention story).
// MeanBatch reports the offload thread's mean drain batch size, which
// grows with thread count as commands arrive back-to-back.
func MTPostScaling(cfg sim.Config, threadCounts []int, iters int) []MTScaleResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	cfg.ThreadLevel = sim.Multiple
	out := make([]MTScaleResult, 0, len(threadCounts))
	for _, threads := range threadCounts {
		post, res := mtPosts(cfg, threads, iters)
		out = append(out, MTScaleResult{Threads: threads, PostNs: post, MeanBatch: res.Metrics.MeanBatch()})
	}
	return out
}
