package sim

import (
	"testing"

	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
)

// TestOffloadPerThreadFIFO: several threads per rank share the one offload
// agent; every thread's traffic still completes and per-(peer, tag) order
// holds.
func TestOffloadPerThreadFIFO(t *testing.T) {
	const pairs = 4
	const iters = 8
	ok := make([]bool, pairs)
	r := Run(Config{Ranks: 2, Approach: Offload, Profile: model.Endeavor()}, func(env *Env) {
		env.ParallelN(pairs, func(th *Thread) {
			if env.Rank() == 0 {
				for i := 0; i < iters; i++ {
					th.Comm.Send([]byte{byte(i)}, 1, 100+th.ID)
				}
			} else {
				got := make([]byte, 1)
				inOrder := true
				for i := 0; i < iters; i++ {
					th.Comm.Recv(got, 0, 100+th.ID)
					inOrder = inOrder && got[0] == byte(i)
				}
				ok[th.ID] = inOrder
			}
		})
	})
	for i, o := range ok {
		if !o {
			t.Errorf("thread pair %d lost per-thread FIFO order", i)
		}
	}
	if r.Metrics.Submitted == 0 || r.Metrics.Completed != r.Metrics.Submitted {
		t.Fatalf("submitted=%d completed=%d, want equal and nonzero",
			r.Metrics.Submitted, r.Metrics.Completed)
	}
}

// TestOffloadDrainFairness: with a deliberately skewed load — one thread
// submitting an order of magnitude more than its siblings — no shard may
// starve: every thread's commands complete, in order, and the engine
// drains everything it accepted.
func TestOffloadDrainFairness(t *testing.T) {
	const threads = 4
	counts := [threads]int{80, 8, 8, 8} // thread 0 floods its shard
	got := [threads]int{}
	r := Run(Config{Ranks: 2, Approach: Offload, Profile: model.Endeavor()}, func(env *Env) {
		env.ParallelN(threads, func(th *Thread) {
			if env.Rank() == 0 {
				for i := 0; i < counts[th.ID]; i++ {
					th.Comm.Send([]byte{byte(i)}, 1, 200+th.ID)
				}
			} else {
				buf := make([]byte, 1)
				for i := 0; i < counts[th.ID]; i++ {
					th.Comm.Recv(buf, 0, 200+th.ID)
					if buf[0] != byte(i) {
						t.Errorf("thread %d overtaken at %d: got %d", th.ID, i, buf[0])
						return
					}
					got[th.ID]++
				}
			}
		})
	})
	for i, n := range got {
		if n != counts[i] {
			t.Errorf("thread %d received %d of %d messages (starved)", i, n, counts[i])
		}
	}
	if r.Metrics.Completed != r.Metrics.Submitted {
		t.Fatalf("completed %d of %d submitted", r.Metrics.Completed, r.Metrics.Submitted)
	}
}

// TestOffloadCriticalPathExact: with several threads per rank posting
// through the offload agent, the critical-path attribution still partitions
// the run's elapsed time exactly.
func TestOffloadCriticalPathExact(t *testing.T) {
	tr := obs.NewTrace(obs.Options{})
	res := Run(Config{Ranks: 2, Approach: Offload, Profile: model.Endeavor(), Trace: tr}, func(env *Env) {
		env.ParallelN(4, func(th *Thread) {
			peer := 1 - env.Rank()
			buf := make([]byte, 4<<10)
			for i := 0; i < 5; i++ {
				rr := th.Comm.Irecv(buf, peer, 500+th.ID)
				rs := th.Comm.Isend(buf, peer, 500+th.ID)
				th.Comm.Waitall(&rr, &rs)
			}
		})
	})
	reports := critpath.Analyze(tr)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Total != int64(res.Elapsed) {
		t.Fatalf("report total %d != run elapsed %d", rep.Total, res.Elapsed)
	}
	if rep.Sum() != rep.Total {
		t.Fatalf("attribution sums to %d, elapsed is %d (must be exact)\n%s",
			rep.Sum(), rep.Total, rep.Table())
	}
}
