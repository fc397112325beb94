package proto

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/vclock"
)

// newCrashRig is newRig with one rank per node and a crash table
// installed before any traffic flows.
func newCrashRig(n int, p *model.Profile, crashes []fabric.Crash) *rig {
	p.RanksPerNode = 1
	k := vclock.NewKernel()
	f := fabric.New(k, p, n)
	f.SetCrashes(crashes)
	r := &rig{k: k, f: f, p: p}
	for i := 0; i < n; i++ {
		r.engs = append(r.engs, NewEngine(k, f, p, i))
	}
	return r
}

// waitWithDeadline drives the engine until every request completes, bounding
// the wait in virtual time: past deadline it panics, which the kernel
// surfaces as a test failure instead of a wedged scheduler. (It must panic,
// not t.Fatalf: Fatalf's runtime.Goexit would skip the kernel handoff and
// deadlock the whole simulation.)
func waitWithDeadline(tk *vclock.Task, e *Engine, deadline vclock.Time, reqs ...Req) {
	for _, r := range reqs {
		for !r.Done() {
			if tk.Now() > deadline {
				panic(fmt.Sprintf("waitWithDeadline: rank %d still waiting at %d ns (deadline %d)",
					e.Rank, tk.Now(), deadline))
			}
			seq := e.Seq()
			e.Progress(tk)
			if r.Done() {
				break
			}
			if e.Seq() == seq {
				e.AwaitChange(tk, seq)
			}
		}
	}
}

func TestWatchdogTimesOutOrphanReceive(t *testing.T) {
	// A receive whose sender never posts: without the watchdog this WaitAll
	// blocks forever and the kernel panics on deadlock. With it, the wait
	// returns and the op carries ErrTimeout.
	r := newRig(2, model.Endeavor())
	for _, e := range r.engs {
		e.Deadline = 50_000
	}
	var opErr error
	var failedAt vclock.Time
	r.k.Go("recver", func(tk *vclock.Task) {
		op := r.engs[1].Irecv(tk, make([]byte, 64), 0, 1, 0)
		r.engs[1].WaitAll(tk, op)
		opErr = op.Err
		failedAt = tk.Now()
	})
	r.k.Run()
	if !errors.Is(opErr, ErrTimeout) {
		t.Fatalf("op.Err = %v, want ErrTimeout", opErr)
	}
	if failedAt < 50_000 || failedAt > 100_000 {
		t.Fatalf("failed at %d ns, want within [deadline, 2*deadline]", failedAt)
	}
	if r.engs[1].Stats().WatchdogTrips != 1 {
		t.Fatalf("stats %+v, want 1 watchdog trip", r.engs[1].Stats())
	}
}

func TestWatchdogReportsRankFailed(t *testing.T) {
	// The peer crashes before answering a rendezvous handshake: the perfect
	// failure detector upgrades the timeout to ErrRankFailed.
	p := model.Endeavor()
	r := newCrashRig(2, p, []fabric.Crash{{Rank: 1, At: 1000}})
	for _, e := range r.engs {
		e.Deadline = 100_000
	}
	var sendErr error
	r.k.Go("sender", func(tk *vclock.Task) {
		tk.Sleep(2000) // send after the peer is already dead
		op := r.engs[0].Isend(tk, seqBytes(p.EagerThreshold*2), 1, 1, 0)
		r.engs[0].WaitAll(tk, op)
		sendErr = op.Err
	})
	r.k.Run()
	if !errors.Is(sendErr, ErrRankFailed) {
		t.Fatalf("op.Err = %v, want ErrRankFailed", sendErr)
	}
}

func TestWatchdogFailedRecvTombstonesQueueEntry(t *testing.T) {
	// After a posted receive times out, a late-arriving message must not
	// land in its (dead) buffer; it goes to the unexpected queue for the
	// next matching receive.
	r := newRig(2, model.Endeavor())
	for _, e := range r.engs {
		e.Deadline = 50_000
	}
	var firstErr error
	got := make([]byte, 128)
	r.k.Go("sender", func(tk *vclock.Task) {
		// Past the first receive's 50 µs deadline, but within the re-posted
		// receive's own watchdog window.
		tk.Sleep(60_000)
		r.engs[0].Isend(tk, seqBytes(128), 1, 4, 0)
	})
	r.k.Go("recver", func(tk *vclock.Task) {
		dead := make([]byte, 128)
		op := r.engs[1].Irecv(tk, dead, 0, 4, 0)
		r.engs[1].WaitAll(tk, op)
		firstErr = op.Err
		// Re-post: this receive matches the late message.
		op2 := r.engs[1].Irecv(tk, got, 0, 4, 0)
		waitWithDeadline(tk, r.engs[1], 10_000_000, op2)
	})
	r.k.Run()
	if !errors.Is(firstErr, ErrTimeout) {
		t.Fatalf("first recv err = %v, want ErrTimeout", firstErr)
	}
	if !bytes.Equal(got, seqBytes(128)) {
		t.Fatal("late message did not reach the re-posted receive")
	}
}

func TestZeroFaultPlanChangesNothing(t *testing.T) {
	// A crash table whose crash falls after the run has ended, or a
	// watchdog generous enough never to trip, must leave the timeline
	// identical to a run with neither: fault-free sends do no extra work.
	elapsed := func(crashes []fabric.Crash, deadline float64) (vclock.Time, fabric.Stats) {
		r := newCrashRig(2, model.Endeavor(), crashes)
		for _, e := range r.engs {
			e.Deadline = deadline
		}
		r.k.Go("s", func(tk *vclock.Task) {
			op := r.engs[0].Isend(tk, seqBytes(4096), 1, 0, 0)
			waitWithDeadline(tk, r.engs[0], 1_000_000_000, op)
		})
		r.k.Go("r", func(tk *vclock.Task) {
			op := r.engs[1].Irecv(tk, make([]byte, 4096), 0, 0, 0)
			waitWithDeadline(tk, r.engs[1], 1_000_000_000, op)
		})
		return r.k.Run(), r.f.Stats()
	}
	baseT, base := elapsed(nil, 0)
	wdT, wd := elapsed(nil, 1e9) // watchdog armed but never tripping
	lateT, late := elapsed([]fabric.Crash{{Rank: 1, At: 1e15}}, 0)
	if wdT != baseT || wd != base {
		t.Fatalf("idle watchdog perturbed the timeline: %d %+v vs %d %+v", wdT, wd, baseT, base)
	}
	if lateT != baseT || late != base {
		t.Fatalf("a crash after the run perturbed the timeline: %d %+v vs %d %+v", lateT, late, baseT, base)
	}
}
