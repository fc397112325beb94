package bench

import (
	"mpioffload/mpi"
	"mpioffload/sim"
)

// CollKinds lists the nonblocking collectives exercised by Figs 3 and 5.
var CollKinds = []string{"ibarrier", "ibcast", "ireduce", "iallreduce", "igather", "iscatter", "iallgather", "ialltoall"}

// startColl issues one nonblocking collective of the given kind with
// per-rank payload of `size` bytes, reusing the provided scratch buffers.
func startColl(kind string, c *mpi.Comm, size int, buf, big []byte) mpi.Request {
	switch kind {
	case "ibarrier":
		return c.Ibarrier()
	case "ibcast":
		return c.Ibcast(buf, 0)
	case "ireduce":
		return c.Ireduce(buf, mpi.SumFloat64, 0)
	case "iallreduce":
		return c.Iallreduce(buf, mpi.SumFloat64)
	case "igather":
		return c.Igather(buf, big, 0)
	case "iscatter":
		return c.Iscatter(big, buf, 0)
	case "iallgather":
		return c.Iallgather(buf, big)
	case "ialltoall":
		return c.Ialltoall(big, append([]byte(nil), big...), size)
	}
	panic("bench: unknown collective " + kind)
}

// CollOverlapResult is one bar of Fig 3: overlap percentage for one
// nonblocking collective at one message size.
type CollOverlapResult struct {
	Coll       string
	Size       int
	PureNs     float64
	OverlapPct float64
}

// collBufs sizes one collective's buffers: at least 8 bytes per rank, and
// an n-fold buffer for the gather/scatter/all-to-all family.
func collBufs(c *mpi.Comm, size int) (sz int, buf, big []byte) {
	sz = max(size, 8)
	return sz, make([]byte, sz), make([]byte, sz*c.Size())
}

// OverlapColl measures compute-communication overlap for nonblocking
// collectives with the IMB-NBC methodology (§4.1, Fig 3): the pure
// collective time is measured first, then the collective is re-run with an
// equal amount of computation between the call and the Wait.
func OverlapColl(cfg sim.Config, ranks int, kinds []string, size, iters int) []CollOverlapResult {
	return sweep(cfg, ranks, kinds, func(env *Env, kind string, res *CollOverlapResult) {
		c := env.World
		sz, buf, big := collBufs(c, size)
		// run times one collective with `compute` ns of computation between
		// the call and the Wait; it returns the total and the
		// communication share (total minus the computation).
		run := func(compute float64) (total, comm float64) {
			start := env.Now()
			r := startColl(kind, c, sz, buf, big)
			if compute > 0 {
				env.ComputeWithProgress(compute, compute/16)
			}
			c.Wait(&r)
			total = float64(env.Now() - start)
			c.Barrier()
			return total, total - compute
		}
		for i := 0; i < 2; i++ {
			run(0)
		}
		pure := 0.0
		for i := 0; i < iters; i++ {
			_, comm := run(0)
			pure += comm
		}
		pure /= float64(iters)
		ovrl := 0.0
		for i := 0; i < iters; i++ {
			total, _ := run(pure)
			ovrl += total
		}
		ovrl /= float64(iters)
		if env.Rank() == 0 {
			// IMB-NBC: overlap = (t_pure + t_CPU - t_ovrl) / t_pure,
			// with t_CPU = t_pure.
			frac := (2*pure - ovrl) / pure
			*res = CollOverlapResult{Coll: kind, Size: sz, PureNs: pure, OverlapPct: 100 * min(max(frac, 0), 1)}
		}
	})
}

// CollPostResult is one bar of Fig 5: the application-thread time spent
// inside the nonblocking collective call itself.
type CollPostResult struct {
	Coll   string
	Size   int
	PostNs float64
}

// CollPostTime measures the call-issue time of nonblocking collectives on
// `ranks` ranks (§4.2, Fig 5).
func CollPostTime(cfg sim.Config, ranks int, kinds []string, size, iters int) []CollPostResult {
	return sweep(cfg, ranks, kinds, func(env *Env, kind string, res *CollPostResult) {
		c := env.World
		sz, buf, big := collBufs(c, size)
		sum, cnt := 0.0, 0
		for i := 0; i < iters+2; i++ {
			t0 := env.Now()
			r := startColl(kind, c, sz, buf, big)
			dt := float64(env.Now() - t0)
			c.Wait(&r)
			c.Barrier()
			if i >= 2 {
				sum += dt
				cnt++
			}
		}
		if env.Rank() == 0 {
			*res = CollPostResult{Coll: kind, Size: sz, PostNs: sum / float64(cnt)}
		}
	})
}
