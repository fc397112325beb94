package bench

import (
	"fmt"

	"mpioffload/internal/fabric"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/mpi"
	"mpioffload/sim"
)

// ChaosSpec is one cell of the chaos sweep: the crash of the last rank at
// FaultAt against one approach. What each cell must show (detection,
// recovery) is asserted by cmd/paper's chaos tests, keyed by Plan.
type ChaosSpec struct {
	Plan    string  // the plan's name in the sweep table
	FaultAt float64 // virtual time of the crash
}

// ChaosCellResult is one cell's outcome. Violations is empty when every
// run invariant held: every survivor saw the receive from the dead rank
// fail, and the post-fault reduction over the shrunk group was correct.
type ChaosCellResult struct {
	Plan, Approach string

	ElapsedNs int64
	DetectNs  float64 // fault → first surfaced error
	RecoverNs float64 // fault → post-fault reduction complete

	RecoveryPathNs int64 // critpath recovery category
	TraceDrops     int64 // obs ring-buffer events overwritten

	Violations []string
}

// chaosReduceElems sizes the post-fault allreduce: 128 KiB of int64, the
// ring regime.
const chaosReduceElems = 16 << 10

// ChaosCell runs one chaos cell: the last rank crashes at spec.FaultAt,
// the survivors detect it and recover by shrinking, and a large allreduce
// over the survivors must still be exact. Every invariant breach is
// recorded rather than asserted so a sweep always completes. cfg must
// carry the profile, approach and watchdog; the crash and a trace are
// attached here.
func ChaosCell(cfg sim.Config, ranks int, spec ChaosSpec) ChaosCellResult {
	out := ChaosCellResult{Plan: spec.Plan, Approach: cfg.Approach.String()}
	bad := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	victim := ranks - 1
	tr := obs.NewTrace(obs.Options{})
	cfg.Ranks = ranks
	cfg.Crashes = []fabric.Crash{{Rank: victim, At: spec.FaultAt}}
	cfg.Trace = tr

	detect := make([]float64, ranks)
	recoverEnd := make([]float64, ranks)
	for i := range detect {
		detect[i] = -1
	}

	res := Run(cfg, func(env *sim.Env) {
		c := env.World
		me, n := env.Rank(), env.Size()
		if me == victim {
			return // the victim's program ends at the crash
		}

		// Detection: survivors post a receive from the dead rank and time
		// how long the fabric takes to fail it.
		env.ComputeTime(spec.FaultAt + 50_000)
		if st := c.Recv(make([]byte, 64), victim, 999); st.Err == nil {
			bad("rank %d receive from dead rank %d completed cleanly", me, victim)
		}
		detect[me] = float64(env.Now())

		// Recovery: a large reduction over the shrunk membership must still
		// produce the exact answer.
		if failed := c.AckFailed(); len(failed) != 1 || failed[0] != victim {
			bad("rank %d AckFailed = %v, want [%d]", me, failed, victim)
		}
		nc := c.Shrink()
		if nc == nil {
			bad("rank %d Shrink returned nil for a survivor", me)
			return
		}
		if nc.Size() != n-1 {
			bad("rank %d shrunk comm has %d ranks, want %d", me, nc.Size(), n-1)
		}
		v := make([]int64, chaosReduceElems)
		for i := range v {
			v[i] = int64(me + 1)
		}
		nc.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
		want := int64(n * (n - 1) / 2) // 1+2+…+(n-1)
		if v[0] != want || v[len(v)-1] != want {
			bad("rank %d post-fault allreduce = %d..%d, want %d", me, v[0], v[len(v)-1], want)
		}
		recoverEnd[me] = float64(env.Now())
	})

	out.ElapsedNs = int64(res.Elapsed)
	out.TraceDrops = res.Metrics.EventsDropped

	rep := critpath.Analyze(tr)[0]
	out.RecoveryPathNs = rep.Ns[critpath.Recovery]
	if rep.Sum() != rep.Total {
		bad("critical-path attribution no longer sums: %d vs %d", rep.Sum(), rep.Total)
	}

	min, max := -1.0, 0.0
	for i := 0; i < victim; i++ {
		if detect[i] >= 0 && (min < 0 || detect[i] < min) {
			min = detect[i]
		}
		if recoverEnd[i] > max {
			max = recoverEnd[i]
		}
	}
	if min < 0 {
		bad("no survivor detected the crash")
	} else {
		out.DetectNs = min - spec.FaultAt
	}
	out.RecoverNs = max - spec.FaultAt
	return out
}
