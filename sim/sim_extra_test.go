package sim

import (
	"testing"

	"mpioffload/internal/model"
	"mpioffload/mpi"
)

func TestCommSelfForcesThreadMultiple(t *testing.T) {
	// The comm-self approach requires MPI_THREAD_MULTIPLE (§2.2): even
	// when the caller asks for Funneled, calls must pay the lock.
	elapsed := func(a Approach) int64 {
		r := Run(Config{Ranks: 2, Approach: a, ThreadLevel: Funneled}, func(env *Env) {
			buf := make([]byte, 64)
			for i := 0; i < 20; i++ {
				if env.Rank() == 0 {
					env.World.Send(buf, 1, i)
				} else {
					env.World.Recv(buf, 0, i)
				}
			}
		})
		return int64(r.Elapsed)
	}
	if b, cs := elapsed(Baseline), elapsed(CommSelf); cs < b*2 {
		t.Errorf("comm-self (%d) should pay heavy lock costs vs baseline (%d)", cs, b)
	}
}

func TestThreadsAccountingPerApproach(t *testing.T) {
	p := model.Endeavor() // 14 threads per rank
	for _, tc := range []struct {
		a    Approach
		want int
	}{
		{Baseline, 14}, {Iprobe, 14}, {CommSelf, 13}, {Offload, 13}, {CoreSpec, 13},
	} {
		Run(Config{Ranks: 1, Approach: tc.a, Profile: p}, func(env *Env) {
			if env.Threads() != tc.want {
				t.Errorf("%s: threads = %d, want %d", tc.a, env.Threads(), tc.want)
			}
		})
	}
}

func TestComputeWithProgressAddsUpExactly(t *testing.T) {
	for _, a := range []Approach{Baseline, Iprobe} {
		var dur int64
		Run(Config{Ranks: 1, Approach: a}, func(env *Env) {
			start := env.Now()
			env.ComputeWithProgress(100_000, 10_000)
			dur = int64(env.Now() - start)
		})
		if a == Baseline && dur != 100_000 {
			t.Errorf("baseline compute took %d, want exactly 100000", dur)
		}
		if a == Iprobe && dur < 100_000 {
			t.Errorf("iprobe compute took %d, want >= 100000 (plus probe costs)", dur)
		}
	}
}

func TestNestedParallelRegions(t *testing.T) {
	Run(Config{Ranks: 1, Approach: Baseline}, func(env *Env) {
		total := 0
		env.ParallelN(3, func(th *Thread) {
			th.ComputeTime(100)
			total++
		})
		env.ParallelN(2, func(th *Thread) {
			th.ComputeTime(100)
			total++
		})
		if total != 5 {
			t.Errorf("ran %d thread bodies, want 5", total)
		}
	})
}

func TestEnvAccessors(t *testing.T) {
	p := model.EndeavorPhi()
	Run(Config{Ranks: 2, Approach: Offload, Profile: p}, func(env *Env) {
		if env.Profile().Name != "endeavor-phi" {
			t.Error("profile accessor")
		}
		env.World.Barrier()
		if m := env.Metrics(); m.Submitted == 0 || m.Completed != m.Submitted {
			t.Errorf("world should route through the offload thread: %d submitted, %d completed",
				m.Submitted, m.Completed)
		}
	})
}

func TestResultRankElapsed(t *testing.T) {
	r := Run(Config{Ranks: 3, Approach: Baseline}, func(env *Env) {
		env.ComputeTime(float64(1000 * (env.Rank() + 1)))
	})
	for i := 0; i < 3; i++ {
		if r.RankElapsed[i] != int64(1000*(i+1)) {
			t.Fatalf("rank %d elapsed %d", i, r.RankElapsed[i])
		}
	}
	if r.Elapsed != 3000 {
		t.Fatalf("elapsed %d", r.Elapsed)
	}
}

func TestSendrecvNoDeadlockRing(t *testing.T) {
	// Every rank exchanges around a ring simultaneously — the classic
	// deadlock trap that posting both halves before waiting avoids.
	const n = 5
	Run(Config{Ranks: n, Approach: Baseline}, func(env *Env) {
		right := (env.Rank() + 1) % n
		left := (env.Rank() - 1 + n) % n
		out := []byte{byte(env.Rank())}
		in := make([]byte, 1)
		rr := env.World.Irecv(in, left, 1)
		rs := env.World.Isend(out, right, 1)
		env.World.Waitall(&rr, &rs)
		if in[0] != byte(left) {
			t.Errorf("rank %d got %d, want %d", env.Rank(), in[0], left)
		}
		env.World.Barrier()
	})
}

func TestProtocolsSurviveLinkJitter(t *testing.T) {
	// Noise injection: with ±40% latency jitter, collectives and
	// point-to-point traffic must stay correct under every approach.
	p := model.Endeavor()
	p.LinkJitter = 0.4
	p.RanksPerNode = 1
	for _, a := range []Approach{Baseline, CommSelf, Offload} {
		pp := *p
		Run(Config{Ranks: 5, Approach: a, Profile: &pp}, func(env *Env) {
			c := env.World
			v := []float64{float64(env.Rank() + 1)}
			c.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
			if v[0] != 15 {
				t.Errorf("%s: allreduce under jitter = %v", a, v[0])
			}
			peer := (env.Rank() + 1) % 5
			prev := (env.Rank() + 4) % 5
			for i := 0; i < 10; i++ {
				out := []byte{byte(i)}
				in := make([]byte, 1)
				rr := c.Irecv(in, prev, i)
				rs := c.Isend(out, peer, i)
				c.Waitall(&rr, &rs)
				if in[0] != byte(i) {
					t.Errorf("%s: jittered ring iteration %d got %d", a, i, in[0])
				}
			}
			c.Barrier()
		})
	}
}
