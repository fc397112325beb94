package sim

import (
	"bytes"
	"errors"
	"testing"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/mpi"
)

// crashRun is the chaos replay scenario on the flat fabric: 8 ranks at 2
// per node, the last of which crashes at 150 µs. The survivors run an eager
// stream to the dead rank (silenced by the fabric), time out a receive from
// it under the watchdog, shrink the world and ring-allreduce over the
// survivors (above RingThreshold). It returns the run, every survivor's
// reduced value, and the Chrome export of the trace.
func crashRun(t *testing.T) (Result, []int64, []byte) {
	const n = 8
	const elems = 32 << 10 // 256 KiB of int64 — well above RingThreshold
	const victim = n - 1
	p := model.Endeavor()
	p.RanksPerNode = 2
	tr := obs.NewTrace(obs.Options{})
	sums := make([]int64, n)
	res := Run(Config{
		Ranks: n, Approach: Baseline, Profile: p,
		Crashes:  []fabric.Crash{{Rank: victim, At: 150_000}},
		Watchdog: 400_000,
		Trace:    tr,
	}, func(env *Env) {
		c := env.World
		me := env.Rank()
		if me == victim {
			return // the victim's program ends at the crash
		}
		env.ComputeTime(200_000)
		for i := 0; i < 4; i++ {
			r := c.Isend(make([]byte, 1024), victim, 100+i)
			c.Wait(&r)
		}
		if st := c.Recv(make([]byte, 64), victim, 99); st.Err == nil {
			panic("a receive from the dead rank completed cleanly")
		}
		c.AckFailed()
		nc := c.Shrink()
		v := make([]int64, elems)
		for i := range v {
			v[i] = int64(me + 1)
		}
		nc.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
		sums[me] = v[0]
	})
	var out bytes.Buffer
	if err := obs.WriteChrome(&out, tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return res, sums[:victim], out.Bytes()
}

// TestChaosRunIsDeterministic: the crash scenario — silenced packets,
// watchdog trips, the shrink and the recovery allreduce — must replay
// identically, down to the exported trace bytes, and still reduce
// correctly over the survivors.
func TestChaosRunIsDeterministic(t *testing.T) {
	r1, s1, tr1 := crashRun(t)
	r2, s2, tr2 := crashRun(t)
	if r1.Metrics.WatchdogTrips == 0 || r1.Metrics.CrashDrops == 0 {
		t.Fatalf("the crash provoked no watchdog trip or silenced no packet: %d trips, %d drops",
			r1.Metrics.WatchdogTrips, r1.Metrics.CrashDrops)
	}
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("elapsed diverged: %d vs %d", r1.Elapsed, r2.Elapsed)
	}
	if r1.Metrics.WatchdogTrips != r2.Metrics.WatchdogTrips || r1.Metrics.CrashDrops != r2.Metrics.CrashDrops {
		t.Fatalf("crash counters diverged: %d/%d trips, %d/%d drops", r1.Metrics.WatchdogTrips,
			r2.Metrics.WatchdogTrips, r1.Metrics.CrashDrops, r2.Metrics.CrashDrops)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Fatal("a replay exported different trace bytes")
	}
	for me, got := range s1 {
		if got != 28 || s2[me] != got { // 1+2+…+7
			t.Fatalf("rank %d allreduce = %d then %d, want 28", me, got, s2[me])
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
				Crashes:  []fabric.Crash{{Rank: n - 1, At: 150_000}},
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
			if res.Metrics.WatchdogTrips == 0 {
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
