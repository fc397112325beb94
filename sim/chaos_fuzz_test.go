package sim

import (
	"testing"

	"mpioffload/internal/fabric"
)

// FuzzChaosPlans throws randomized crash plans — which rank dies, and when —
// at a small halo-exchange workload and checks the chaos invariant: the run
// terminates within the watchdog regime and every operation either
// completes or carries a non-nil Status.Err. A hang would trip the kernel's
// deadlock detection or the go test timeout; a silent wedge would leave a
// request unaccounted. A crash rank of n or more means no rank crashes.
func FuzzChaosPlans(f *testing.F) {
	f.Add(uint8(4), uint32(100_000))
	f.Add(uint8(3), uint32(50_000))
	f.Add(uint8(0), uint32(120_000))
	f.Add(uint8(1), uint32(80_000))
	f.Add(uint8(2), uint32(2_000_000))

	f.Fuzz(func(t *testing.T, crashRank uint8, crashAt uint32) {
		const n = 4
		victim := int(crashRank) % (n + 1)
		var crashes []fabric.Crash
		if victim < n {
			// Keep the crash inside the run's reach.
			crashes = []fabric.Crash{{Rank: victim, At: float64(crashAt%1_000_000) + 1}}
		}

		errs := make([][]error, n)
		Run(Config{
			Ranks: n, Approach: Baseline, Profile: interNodeProfile(),
			Crashes:  crashes,
			Watchdog: 300_000,
		}, func(env *Env) {
			me := env.Rank()
			if me == victim {
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
		for me := 0; me < n; me++ {
			if me != victim && len(errs[me]) != 12 {
				t.Fatalf("rank %d accounted %d statuses, want 12 (an op vanished)", me, len(errs[me]))
			}
		}
	})
}
