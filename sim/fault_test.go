package sim

import (
	"bytes"
	"errors"
	"testing"

	"mpioffload/internal/fault"
	"mpioffload/internal/model"
	"mpioffload/mpi"
)

// interNodeProfile puts every rank on its own node so traffic crosses the
// (faultable) wire rather than shared memory.
func interNodeProfile() *model.Profile {
	p := model.Endeavor()
	p.RanksPerNode = 1
	return p
}

// suiteResult is everything the application observes from one run of the
// protocol suite on one rank: if a lossy network changes any of it, the
// reliable-delivery layer has failed.
type suiteResult struct {
	RingByte  byte // first byte received from the left neighbour (eager)
	RdvOK     bool // rendezvous payload from the partner arrived intact
	Allreduce byte // sum over ranks of (rank+1)
	Bcast     byte // value broadcast from rank 0
}

// protocolSuite exercises every protocol class: eager ring exchange,
// rendezvous pairwise exchange and collectives.
func protocolSuite(env *Env, out []suiteResult) {
	c := env.World
	me, n := env.Rank(), env.Size()
	var res suiteResult

	// Eager ring: receive from the left, send to the right.
	right, left := (me+1)%n, (me+n-1)%n
	msg := bytes.Repeat([]byte{byte(me + 1)}, 1024)
	got := make([]byte, 1024)
	rr := c.Irecv(got, left, 1)
	rs := c.Isend(msg, right, 1)
	c.Wait(&rr)
	c.Wait(&rs)
	res.RingByte = got[0]

	// Rendezvous pairwise: partner ranks exchange a >threshold payload.
	size := env.Profile().EagerThreshold * 2
	partner := me ^ 1
	big := bytes.Repeat([]byte{byte(me + 101)}, size)
	bigGot := make([]byte, size)
	rr2 := c.Irecv(bigGot, partner, 2)
	rs2 := c.Isend(big, partner, 2)
	c.Wait(&rr2)
	c.Wait(&rs2)
	res.RdvOK = bytes.Equal(bigGot, bytes.Repeat([]byte{byte(partner + 101)}, size))

	// Collectives.
	sum := func(d, s []byte) { d[0] += s[0] }
	acc := []byte{byte(me + 1)}
	c.Allreduce(acc, sum)
	res.Allreduce = acc[0]
	b := []byte{0}
	if me == 0 {
		b[0] = 42
	}
	rb := c.Ibcast(b, 0)
	c.Wait(&rb)
	res.Bcast = b[0]
	out[me] = res
}

func wantSuite(n int) []suiteResult {
	out := make([]suiteResult, n)
	total := byte(0)
	for i := 0; i < n; i++ {
		total += byte(i + 1)
	}
	for me := 0; me < n; me++ {
		out[me] = suiteResult{
			RingByte:  byte((me+n-1)%n + 1),
			RdvOK:     true,
			Allreduce: total,
			Bcast:     42,
		}
	}
	return out
}

// TestProtocolSuiteSurvivesLossyFabric re-runs the full protocol suite
// under 5% drop + 2% duplication for every approach and asserts the
// application-visible results are identical to a clean network's.
func TestProtocolSuiteSurvivesLossyFabric(t *testing.T) {
	const n = 4
	want := wantSuite(n)
	for _, a := range []Approach{Baseline, Iprobe, CommSelf, Offload} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			out := make([]suiteResult, n)
			res := Run(Config{
				Ranks: n, Approach: a, Profile: interNodeProfile(),
				Fault: &fault.Plan{Seed: 9, DropRate: 0.05, DupRate: 0.02},
			}, func(env *Env) { protocolSuite(env, out) })
			for me := 0; me < n; me++ {
				if out[me] != want[me] {
					t.Fatalf("rank %d observed %+v, want %+v", me, out[me], want[me])
				}
			}
			r := res.Resilience
			if r.Dropped == 0 {
				t.Fatalf("plan injected no drops: %+v", r)
			}
			if r.Retransmits == 0 {
				t.Fatalf("no retransmissions despite drops: %+v", r)
			}
			if r.WatchdogTrips != 0 || r.Abandoned != 0 {
				t.Fatalf("recovery should be silent, got %+v", r)
			}
		})
	}
}

// TestLossyRunIsDeterministic: the same seed against the same workload must
// replay the identical fault timeline, byte for byte and tick for tick.
func TestLossyRunIsDeterministic(t *testing.T) {
	const n = 4
	run := func() (Result, []suiteResult) {
		out := make([]suiteResult, n)
		res := Run(Config{
			Ranks: n, Approach: Offload, Profile: interNodeProfile(),
			Fault: &fault.Plan{Seed: 1234, DropRate: 0.08, DupRate: 0.04},
		}, func(env *Env) { protocolSuite(env, out) })
		return res, out
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("elapsed diverged: %d vs %d", r1.Elapsed, r2.Elapsed)
	}
	if r1.Resilience != r2.Resilience {
		t.Fatalf("resilience counters diverged:\n%+v\n%+v", r1.Resilience, r2.Resilience)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("rank %d results diverged", i)
		}
	}
	// And a different seed must yield a different fault timeline.
	out := make([]suiteResult, n)
	r3 := Run(Config{
		Ranks: n, Approach: Offload, Profile: interNodeProfile(),
		Fault: &fault.Plan{Seed: 99, DropRate: 0.08, DupRate: 0.04},
	}, func(env *Env) { protocolSuite(env, out) })
	if r3.Resilience == r1.Resilience && r3.Elapsed == r1.Elapsed {
		t.Fatal("different seeds produced identical timelines")
	}
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
				Fault:    &fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: 50_000}}},
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
			if res.Resilience.WatchdogTrips == 0 {
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
