package sim

import (
	"bytes"
	"errors"
	"testing"

	"mpioffload/internal/fault"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/mpi"
)

// lossyStreamRun is the chaos replay scenario on the flat fabric: 8 ranks
// at 2 per node, under seeded drop and duplication, run an eager stream
// between nodes and then ring allreduces (above RingThreshold). Lost
// packets retransmit after a jittered backoff, so a replay is only exact
// if the jitter stream is seeded too. It returns the run, every rank's
// reduced value, and the Chrome export of the trace.
func lossyStreamRun(t *testing.T) (Result, []int64, []byte) {
	const n = 8
	const elems = 32 << 10 // 256 KiB of int64 — well above RingThreshold
	p := model.Endeavor()
	p.RanksPerNode = 2
	tr := obs.NewTrace(obs.Options{})
	sums := make([]int64, n)
	res := Run(Config{
		Ranks: n, Approach: Baseline, Profile: p,
		Fault:    &fault.Plan{Seed: 7, DropRate: 0.05, DupRate: 0.02},
		Watchdog: 5_000_000,
		Trace:    tr,
	}, func(env *Env) {
		c := env.World
		me := env.Rank()

		// Phase A: an eager stream from rank 0 (node 0) to rank 4 (node 2).
		const streamMsgs = 50
		if me == 0 {
			buf := make([]byte, 1024)
			for i := 0; i < streamMsgs; i++ {
				r := c.Isend(buf, 4, 100+i)
				c.Wait(&r)
				env.ComputeTime(300)
			}
		}
		if me == 4 {
			reqs := make([]*mpi.Request, streamMsgs)
			for i := range reqs {
				r := c.Irecv(make([]byte, 1024), 0, 100+i)
				reqs[i] = &r
			}
			c.Waitall(reqs...)
		}

		// Phase B: ring allreduces across the lossy wire.
		v := make([]int64, elems)
		for it := 0; it < 2; it++ {
			// Reset the inputs so every iteration reduces the same values.
			for i := range v {
				v[i] = int64(me + 1)
			}
			c.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
		}
		sums[me] = v[0]
	})
	var out bytes.Buffer
	if err := obs.WriteChrome(&out, tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return res, sums, out.Bytes()
}

// TestChaosRunIsDeterministic: the lossy scenario — drops, duplicates,
// retransmit backoff jitter and all — must replay identically under the
// same seed, down to the exported trace bytes, and still reduce correctly.
func TestChaosRunIsDeterministic(t *testing.T) {
	r1, s1, tr1 := lossyStreamRun(t)
	r2, s2, tr2 := lossyStreamRun(t)
	if r1.Resilience.Retransmits == 0 {
		t.Fatalf("the plan provoked no retransmissions, so no backoff jitter: %+v", r1.Resilience)
	}
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("elapsed diverged: %d vs %d", r1.Elapsed, r2.Elapsed)
	}
	if r1.Resilience != r2.Resilience {
		t.Fatalf("resilience counters diverged:\n%+v\n%+v", r1.Resilience, r2.Resilience)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Fatal("same seed exported different trace bytes")
	}
	for me, got := range s1 {
		if got != 36 || s2[me] != got { // 1+2+…+8
			t.Fatalf("rank %d allreduce = %d then %d, want 36", me, got, s2[me])
		}
	}
}

// TestAllreduceShrinkAfterCrash is the issue's second acceptance criterion:
// when a rank crashes mid-run, an allreduce over the old world surfaces an
// error (instead of wedging until the timeout on every retry), AckFailed
// names the dead rank, and a Shrink'd communicator completes a correct
// allreduce over the survivors.
func TestAllreduceShrinkAfterCrash(t *testing.T) {
	const n = 4
	for _, a := range []Approach{Baseline, Offload} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			errs := make([]error, n)
			acked := make([][]int, n)
			shrunk := make([]int, n)
			sums := make([]int64, n)
			res := Run(Config{
				Ranks: n, Approach: a, Profile: interNodeProfile(),
				Fault:    &fault.Plan{Crashes: []fault.Crash{{Rank: n - 1, At: 150_000}}},
				Watchdog: 400_000,
			}, func(env *Env) {
				me := env.Rank()
				if me == n-1 {
					return // the crash victim's program ends here
				}
				c := env.World
				env.ComputeTime(200_000) // post after the peer is dead
				v := []int64{int64(me + 1)}
				r := c.Iallreduce(mpi.Int64Bytes(v), mpi.SumInt64)
				errs[me] = c.Wait(&r).Err

				// ULFM recovery: acknowledge the failure, shrink, retry.
				acked[me] = c.AckFailed()
				nc := c.Shrink()
				if nc == nil {
					return
				}
				shrunk[me] = nc.Size()
				v2 := []int64{int64(me + 1)}
				nc.Allreduce(mpi.Int64Bytes(v2), mpi.SumInt64)
				sums[me] = v2[0]
			})

			sawErr := false
			for me := 0; me < n-1; me++ {
				if errs[me] != nil {
					sawErr = true
					if !errors.Is(errs[me], mpi.ErrRankFailed) && !errors.Is(errs[me], mpi.ErrTimeout) {
						t.Fatalf("rank %d allreduce err = %v, want rank-failed/timeout", me, errs[me])
					}
				}
			}
			if !sawErr {
				t.Fatal("no survivor observed the collective failing")
			}
			want := int64(0)
			for i := 1; i < n; i++ {
				want += int64(i)
			}
			for me := 0; me < n-1; me++ {
				if len(acked[me]) != 1 || acked[me][0] != n-1 {
					t.Fatalf("rank %d AckFailed = %v, want [%d]", me, acked[me], n-1)
				}
				if shrunk[me] != n-1 {
					t.Fatalf("rank %d shrunk size = %d, want %d", me, shrunk[me], n-1)
				}
				if sums[me] != want {
					t.Fatalf("rank %d survivor allreduce = %d, want %d", me, sums[me], want)
				}
			}
			if res.Resilience.WatchdogTrips == 0 {
				t.Fatal("the failed collective should have tripped the watchdog")
			}
			// The shrunk allreduce must complete promptly — recovery, not
			// a timeout cascade.
			if res.Elapsed > 5_000_000 {
				t.Fatalf("run took %d ns — recovery degenerated into timeout cascades", res.Elapsed)
			}
		})
	}
}
