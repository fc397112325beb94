package bench

import (
	"fmt"

	"mpioffload/internal/fault"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/mpi"
	"mpioffload/sim"
)

// ChaosSpec is one cell of the chaos sweep: a fault plan against one
// approach. What each plan must provoke (retransmissions, detection) is
// asserted by cmd/paper's chaos tests, keyed by Plan.
type ChaosSpec struct {
	Plan string // "drop" | "crash"

	Fault   *fault.Plan
	FaultAt float64 // virtual time of the injected failure (0 = from start)
	Crash   bool    // the plan kills the last rank: survivors must shrink
}

// ChaosCellResult is one cell's outcome. Violations is empty when every
// run invariant held: all operations completed or carried an error, the
// exactly-once stream arrived intact, the post-fault reduction was correct
// (over the shrunk group for crash cells).
type ChaosCellResult struct {
	Plan, Approach string

	ElapsedNs int64
	DetectNs  float64 // crash cells: fault → first surfaced error
	RecoverNs float64 // fault → post-fault reduction complete

	Dropped        int64
	Retransmits    int64
	RecoveryPathNs int64 // critpath recovery category
	TraceDrops     int64 // obs ring-buffer events overwritten

	Violations []string
}

// Chaos stream shape: each rank sends streamMsgs stamped eager messages to
// the rank two ahead, paced across the lossy run.
const (
	chaosStreamMsgs  = 30
	chaosStreamBytes = 1024
	chaosReduceElems = 16 << 10 // 128 KiB of int64: the ring regime
)

// ChaosCell runs one chaos cell: an exactly-once eager stream and a large
// allreduce straddle the injected fault, crash cells detect the dead rank
// and recover by shrinking, and every invariant breach is recorded rather
// than asserted so a sweep always completes. cfg must carry the profile
// and approach; the fault plan and a trace are attached here.
func ChaosCell(cfg sim.Config, ranks int, spec ChaosSpec) ChaosCellResult {
	out := ChaosCellResult{Plan: spec.Plan, Approach: cfg.Approach.String()}
	bad := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	tr := obs.NewTrace(obs.Options{})
	cfg.Ranks = ranks
	cfg.Fault = spec.Fault
	cfg.Trace = tr

	detect := make([]float64, ranks)
	recoverEnd := make([]float64, ranks)
	for i := range detect {
		detect[i] = -1
	}

	res := Run(cfg, func(env *sim.Env) {
		c := env.World
		me, n := env.Rank(), env.Size()
		victim := n - 1
		if spec.Crash && me == victim {
			return // the victim's program ends at the crash
		}

		// Phase A — exactly-once stream across the fault window (skipped in
		// crash cells, where the victim would hole the stream ring).
		if !spec.Crash {
			dst, src := (me+2)%n, (me+n-2)%n
			bufs := make([][]byte, chaosStreamMsgs)
			recvs := make([]mpi.Request, chaosStreamMsgs)
			for i := range bufs {
				bufs[i] = make([]byte, chaosStreamBytes)
				recvs[i] = c.Irecv(bufs[i], src, 1000+i)
			}
			env.ComputeTime(100_000)
			msg := make([]byte, chaosStreamBytes)
			for i := 0; i < chaosStreamMsgs; i++ {
				for j := range msg {
					msg[j] = byte(me*7 + i)
				}
				s := c.Isend(msg, dst, 1000+i)
				if st := c.Wait(&s); st.Err != nil {
					bad("rank %d stream send %d failed: %v", me, i, st.Err)
				}
				env.ComputeTime(4_000)
			}
			for i := range recvs {
				st := c.Wait(&recvs[i])
				if st.Err != nil {
					bad("rank %d stream recv %d failed: %v", me, i, st.Err)
					continue
				}
				for j := range bufs[i] {
					if bufs[i][j] != byte(src*7+i) {
						bad("rank %d stream msg %d corrupt at byte %d (duplicate or misdelivery)", me, i, j)
						break
					}
				}
			}
		}

		// Phase B — detection: survivors of a crash post a receive from the
		// dead rank and time how long the fabric takes to fail it.
		if spec.Crash {
			env.ComputeTime(spec.FaultAt + 50_000)
			if st := c.Recv(make([]byte, 64), victim, 999); st.Err == nil {
				bad("rank %d receive from dead rank %d completed cleanly", me, victim)
			}
			detect[me] = float64(env.Now())
		}

		// Phase C — recovery: a large reduction over the (possibly shrunk)
		// membership must still produce the exact answer.
		v := make([]int64, chaosReduceElems)
		for i := range v {
			v[i] = int64(me + 1)
		}
		want := int64(0)
		if spec.Crash {
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
			nc.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
			for i := 1; i < n; i++ {
				want += int64(i)
			}
		} else {
			c.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
			for i := 1; i <= n; i++ {
				want += int64(i)
			}
		}
		if v[0] != want || v[len(v)-1] != want {
			bad("rank %d post-fault allreduce = %d..%d, want %d", me, v[0], v[len(v)-1], want)
		}
		recoverEnd[me] = float64(env.Now())
	})

	out.ElapsedNs = int64(res.Elapsed)
	r := res.Resilience
	out.Dropped = r.Dropped
	out.Retransmits = r.Retransmits
	out.TraceDrops = res.Metrics.EventsDropped

	rep := critpath.Analyze(tr)[0]
	out.RecoveryPathNs = rep.Ns[critpath.Recovery]
	if rep.Sum() != rep.Total {
		bad("critical-path attribution no longer sums: %d vs %d", rep.Sum(), rep.Total)
	}

	if spec.Crash {
		min, max := -1.0, 0.0
		for i := 0; i < ranks-1; i++ {
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
	} else {
		max := 0.0
		for _, e := range recoverEnd {
			if e > max {
				max = e
			}
		}
		out.RecoverNs = max - spec.FaultAt
	}
	return out
}
