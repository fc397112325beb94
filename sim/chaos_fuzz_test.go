package sim

import (
	"testing"

	"mpioffload/internal/fault"
)

// FuzzChaosPlans throws randomized fault plans — drop/dup rates, a rank
// crash, a NIC outage (transient or permanent) — at a small halo-exchange
// workload and checks the chaos invariant: the run terminates within the
// watchdog regime and every operation either completes or carries a
// non-nil Status.Err. A hang would trip the kernel's deadlock detection or
// the go test timeout; a silent wedge would leave a request unaccounted.
func FuzzChaosPlans(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), false, false, uint32(100_000), uint32(0))
	f.Add(int64(7), uint8(10), uint8(3), false, false, uint32(50_000), uint32(0))
	f.Add(int64(42), uint8(0), uint8(0), true, false, uint32(120_000), uint32(0))
	f.Add(int64(9), uint8(5), uint8(0), false, true, uint32(80_000), uint32(40_000))
	f.Add(int64(1234), uint8(20), uint8(10), true, true, uint32(60_000), uint32(0))

	f.Fuzz(func(t *testing.T, seed int64, dropPct, dupPct uint8, crash, stall bool, faultAt, faultLen uint32) {
		const n = 4
		plan := &fault.Plan{
			Seed:     seed,
			DropRate: float64(dropPct%51) / 100, // 0..0.50
			DupRate:  float64(dupPct%31) / 100,  // 0..0.30
		}
		at := float64(faultAt%1_000_000) + 1 // keep faults inside the run's reach
		if crash {
			plan.Crashes = []fault.Crash{{Rank: n - 1, At: at}}
		}
		if stall {
			// Rank 0's NIC goes down at faultAt: for faultLen ns, or for
			// good (a blackout) when the window is empty.
			s := fault.Stall{Rank: 0, Start: at}
			if faultLen != 0 {
				s.End = at + float64(faultLen%500_000)
			}
			plan.Stalls = []fault.Stall{s}
		}

		errs := make([][]error, n)
		Run(Config{
			Ranks: n, Approach: Baseline, Profile: interNodeProfile(),
			Fault:    plan,
			Watchdog: 300_000,
		}, func(env *Env) {
			me := env.Rank()
			if crash && me == n-1 {
				return // the victim's program ends at the crash
			}
			c := env.World
			right, left := (me+1)%n, (me+n-1)%n
			buf := make([]byte, 512)
			got := make([]byte, 512)
			for i := 0; i < 6; i++ {
				rr := c.Irecv(got, left, i)
				rs := c.Isend(buf, right, i)
				str := c.Wait(&rr)
				sts := c.Wait(&rs)
				errs[me] = append(errs[me], str.Err, sts.Err)
				env.ComputeTime(30_000)
			}
		})

		// Termination is the invariant (Run returned); the Status slice is
		// the "completed or errored" evidence — every Wait yielded exactly
		// one Status, error or not.
		active := n
		if crash {
			active--
		}
		for me := 0; me < active; me++ {
			if len(errs[me]) != 12 {
				t.Fatalf("rank %d accounted %d statuses, want 12 (an op vanished)", me, len(errs[me]))
			}
		}
	})
}
