package sim

import (
	"fmt"
	"testing"

	"mpioffload/internal/model"
	"mpioffload/mpi"
)

var allApproaches = []Approach{Baseline, Iprobe, CommSelf, Offload, CoreSpec}

func TestPingPongAllApproaches(t *testing.T) {
	for _, a := range allApproaches {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			var got []byte
			Run(Config{Ranks: 2, Approach: a}, func(env *Env) {
				c := env.World
				msg := []byte("ping-pong payload 0123456789")
				switch env.Rank() {
				case 0:
					c.Send(msg, 1, 7)
					buf := make([]byte, len(msg))
					c.Recv(buf, 1, 8)
					got = buf
				case 1:
					buf := make([]byte, len(msg))
					c.Recv(buf, 0, 7)
					c.Send(buf, 0, 8)
				}
			})
			if string(got) != "ping-pong payload 0123456789" {
				t.Fatalf("payload corrupted: %q", got)
			}
		})
	}
}

func TestAllreduceAllApproaches(t *testing.T) {
	const n = 6
	for _, a := range allApproaches {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			results := make([]float64, n)
			Run(Config{Ranks: n, Approach: a}, func(env *Env) {
				v := []float64{float64(env.Rank() + 1)}
				env.World.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
				results[env.Rank()] = v[0]
			})
			want := float64(n*(n+1)) / 2
			for r, v := range results {
				if v != want {
					t.Fatalf("rank %d: %v, want %v", r, v, want)
				}
			}
		})
	}
}

func TestOverlapRanking(t *testing.T) {
	// A rendezvous-sized exchange with abundant compute: wait time must
	// rank offload < comm-self < baseline (paper Fig 2).
	waits := map[Approach]int64{}
	const size = 512 << 10
	for _, a := range []Approach{Baseline, CommSelf, Offload} {
		var wait int64
		Run(Config{Ranks: 2, Approach: a}, func(env *Env) {
			c := env.World
			peer := 1 - env.Rank()
			sbuf := make([]byte, size)
			rbuf := make([]byte, size)
			for i := 0; i < 3; i++ { // a few warm iterations
				rr := c.Irecv(rbuf, peer, i)
				rs := c.Isend(sbuf, peer, i)
				env.ComputeTime(5_000_000)
				start := env.Now()
				c.Waitall(&rr, &rs)
				if env.Rank() == 0 && i == 2 {
					wait = int64(env.Now() - start)
				}
				c.Barrier()
			}
		})
		waits[a] = wait
	}
	if !(waits[Offload] < waits[CommSelf] && waits[CommSelf] < waits[Baseline]) {
		t.Fatalf("wait ranking wrong: offload=%d comm-self=%d baseline=%d",
			waits[Offload], waits[CommSelf], waits[Baseline])
	}
	if waits[Offload] > 100_000 {
		t.Fatalf("offload wait %d ns, want near-complete overlap", waits[Offload])
	}
}

func TestDedicatedThreadCostsCompute(t *testing.T) {
	elapsed := map[Approach]int64{}
	for _, a := range []Approach{Baseline, Offload} {
		r := Run(Config{Ranks: 1, Approach: a}, func(env *Env) {
			env.Compute(1e9) // 1 Gflop
		})
		elapsed[a] = int64(r.Elapsed)
	}
	if elapsed[Offload] <= elapsed[Baseline] {
		t.Fatalf("offload compute %d should exceed baseline %d (one fewer thread)",
			elapsed[Offload], elapsed[Baseline])
	}
	slow := float64(elapsed[Offload])/float64(elapsed[Baseline]) - 1
	if slow > 0.10 {
		t.Fatalf("compute slowdown %.1f%% too large (paper: ≤5%%)", slow*100)
	}
}

func TestParallelTeam(t *testing.T) {
	Run(Config{Ranks: 1, Approach: Baseline}, func(env *Env) {
		seen := make([]bool, env.Threads())
		env.ParallelN(env.Threads(), func(th *Thread) {
			seen[th.ID] = true
			th.ComputeTime(1000)
		})
		for i, s := range seen {
			if !s {
				t.Errorf("thread %d never ran", i)
			}
		}
	})
}

func TestParallelThreadsCanCommunicate(t *testing.T) {
	// MPI_THREAD_MULTIPLE: each thread pair does its own exchange.
	const pairs = 4
	ok := make([]bool, pairs)
	Run(Config{Ranks: 2, Approach: Offload, ThreadLevel: Multiple}, func(env *Env) {
		env.ParallelN(pairs, func(th *Thread) {
			buf := []byte{byte(th.ID)}
			if env.Rank() == 0 {
				th.Comm.Send(buf, 1, 100+th.ID)
			} else {
				got := make([]byte, 1)
				th.Comm.Recv(got, 0, 100+th.ID)
				ok[th.ID] = got[0] == byte(th.ID)
			}
		})
	})
	for i, o := range ok {
		if !o {
			t.Errorf("thread pair %d failed", i)
		}
	}
}

func TestMultipleLevelSlowerThanFunneled(t *testing.T) {
	// The same serialized ping-pong must be slower under THREAD_MULTIPLE
	// (global lock per call) than under FUNNELED.
	run := func(level ThreadLevel) int64 {
		r := Run(Config{Ranks: 2, Approach: Baseline, ThreadLevel: level}, func(env *Env) {
			c := env.World
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				if env.Rank() == 0 {
					c.Send(buf, 1, i)
					c.Recv(buf, 1, i)
				} else {
					c.Recv(buf, 0, i)
					c.Send(buf, 0, i)
				}
			}
		})
		return int64(r.Elapsed)
	}
	f, m := run(Funneled), run(Multiple)
	if m <= f {
		t.Fatalf("THREAD_MULTIPLE (%d) should be slower than FUNNELED (%d)", m, f)
	}
}

func TestIprobeHookOnlyActsUnderIprobe(t *testing.T) {
	for _, a := range []Approach{Baseline, Iprobe} {
		Run(Config{Ranks: 2, Approach: a}, func(env *Env) {
			env.Progress() // must be harmless everywhere
			env.World.Barrier()
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		return Run(Config{Ranks: 4, Approach: Offload}, func(env *Env) {
			c := env.World
			v := []float64{float64(env.Rank())}
			c.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
			buf := make([]byte, 32<<10)
			peer := env.Rank() ^ 1
			rr := c.Irecv(buf, peer, 1)
			rs := c.Isend(buf, peer, 1)
			env.ComputeTime(100_000)
			c.Waitall(&rr, &rs)
		})
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic: %d vs %d", a.Elapsed, b.Elapsed)
	}
	for i := range a.RankElapsed {
		if a.RankElapsed[i] != b.RankElapsed[i] {
			t.Fatalf("rank %d nondeterministic", i)
		}
	}
	if a.Net != b.Net {
		t.Fatalf("net stats differ: %+v vs %+v", a.Net, b.Net)
	}
}

func TestApproachStrings(t *testing.T) {
	want := map[Approach]string{
		Baseline: "baseline", Iprobe: "iprobe", CommSelf: "comm-self",
		Offload: "offload", CoreSpec: "core-spec",
	}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), w)
		}
	}
}

func TestWorldTopology(t *testing.T) {
	p := model.Endeavor() // 2 ranks per node
	r := Run(Config{Ranks: 8, Approach: Baseline, Profile: p}, func(env *Env) {
		if env.Size() != 8 {
			t.Errorf("size = %d", env.Size())
		}
		env.World.Barrier()
	})
	if r.Net.Msgs == 0 {
		t.Error("barrier produced no traffic")
	}
}

func TestPerRankProgramIsolation(t *testing.T) {
	// Programs observe their own rank ids and all complete.
	const n = 5
	seen := make([]bool, n)
	Run(Config{Ranks: n, Approach: Baseline}, func(env *Env) {
		seen[env.Rank()] = true
		env.World.Barrier()
	})
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", i)
		}
	}
}

func BenchmarkSimPingPong(b *testing.B) {
	for _, a := range []Approach{Baseline, Offload} {
		b.Run(a.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(Config{Ranks: 2, Approach: a}, func(env *Env) {
					c := env.World
					buf := make([]byte, 1024)
					for j := 0; j < 10; j++ {
						if env.Rank() == 0 {
							c.Send(buf, 1, j)
							c.Recv(buf, 1, j)
						} else {
							c.Recv(buf, 0, j)
							c.Send(buf, 0, j)
						}
					}
				})
			}
		})
	}
}

func ExampleRun() {
	res := Run(Config{Ranks: 2, Approach: Offload}, func(env *Env) {
		v := []float64{1}
		env.World.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)
		if env.Rank() == 0 {
			fmt.Printf("sum=%v\n", v[0])
		}
	})
	_ = res
	// Output: sum=2
}
