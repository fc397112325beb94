package sim

import (
	"errors"
	"testing"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/mpi"
)

// interNodeProfile puts every rank on its own node so traffic crosses the
// wire rather than shared memory.
func interNodeProfile() *model.Profile {
	p := model.Endeavor()
	p.RanksPerNode = 1
	return p
}

// TestRankCrashSurfacesError: a blocking receive from a crashed rank must
// return with ErrRankFailed within the watchdog deadline — before this
// layer existed, the same program deadlocked the kernel.
func TestRankCrashSurfacesError(t *testing.T) {
	for _, a := range []Approach{Baseline, Offload} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			var st mpi.Status
			res := Run(Config{
				Ranks: 2, Approach: a, Profile: interNodeProfile(),
				Crashes:  []fabric.Crash{{Rank: 1, At: 50_000}},
				Watchdog: 500_000,
			}, func(env *Env) {
				if env.Rank() != 0 {
					return // rank 1 "crashes": its NIC goes dark at 50 µs
				}
				env.ComputeTime(100_000) // post after the peer is dead
				st = env.World.Recv(make([]byte, 64), 1, 3)
			})
			if !errors.Is(st.Err, mpi.ErrRankFailed) {
				t.Fatalf("Status.Err = %v, want ErrRankFailed", st.Err)
			}
			// 100 µs post + 500 µs deadline, plus one watchdog sweep of slack.
			if res.Elapsed > 1_500_000 {
				t.Fatalf("run took %d ns — the wait did not fail promptly", res.Elapsed)
			}
			if res.Metrics.WatchdogTrips == 0 {
				t.Fatal("watchdog trip not counted")
			}
		})
	}
}

// TestOrphanWaitTimesOut: a receive nobody will ever satisfy returns
// ErrTimeout under every approach (including through the offload thread's
// done-flag path) instead of hanging the simulation.
func TestOrphanWaitTimesOut(t *testing.T) {
	for _, a := range []Approach{Baseline, CommSelf, Offload} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			errs := make([]error, 2)
			Run(Config{
				Ranks: 2, Approach: a, Profile: interNodeProfile(),
				Watchdog: 200_000,
			}, func(env *Env) {
				c := env.World
				st := c.Recv(make([]byte, 16), 1-env.Rank(), 5)
				errs[env.Rank()] = st.Err
			})
			for r, err := range errs {
				if !errors.Is(err, mpi.ErrTimeout) {
					t.Fatalf("rank %d err = %v, want ErrTimeout", r, err)
				}
			}
		})
	}
}

// TestPhantomReceiveStatusUnderEveryApproach: a matched phantom receive
// reports its source, tag and count, and an orphaned one fails with
// ErrTimeout — whichever backend carries the request.
func TestPhantomReceiveStatusUnderEveryApproach(t *testing.T) {
	for _, a := range []Approach{Baseline, Iprobe, CommSelf, Offload, CoreSpec} {
		t.Run(a.String(), func(t *testing.T) {
			var matched, orphan mpi.Status
			Run(Config{Ranks: 2, Approach: a, Watchdog: 1e6}, func(env *Env) {
				c := env.World
				if env.Rank() == 0 {
					r := c.IsendBytes(4096, 1, 7)
					c.Wait(&r)
					return
				}
				r := c.IrecvBytes(4096, 0, 7)
				matched = c.Wait(&r)
				o := c.IrecvBytes(4096, 0, 8)
				orphan = c.Wait(&o)
			})
			if want := (mpi.Status{Source: 0, Tag: 7, Count: 4096}); matched != want {
				t.Errorf("matched status = %+v, want %+v", matched, want)
			}
			if !errors.Is(orphan.Err, mpi.ErrTimeout) {
				t.Errorf("orphan Status.Err = %v, want ErrTimeout", orphan.Err)
			}
		})
	}
}
