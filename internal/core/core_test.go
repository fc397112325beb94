package core

import (
	"bytes"
	"fmt"
	"testing"

	"mpioffload/internal/coll"
	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

type rig struct {
	k    *vclock.Kernel
	p    *model.Profile
	engs []*proto.Engine
	offs []*Offloader
}

func newRig(n int) *rig {
	p := model.Endeavor()
	p.RanksPerNode = 1
	return newRigP(n, p)
}

func newRigP(n int, p *model.Profile) *rig {
	k := vclock.NewKernel()
	f := fabric.New(k, p, n)
	r := &rig{k: k, p: p}
	for i := 0; i < n; i++ {
		e := proto.NewEngine(k, f, p, i)
		r.engs = append(r.engs, e)
		r.offs = append(r.offs, New(k, e))
	}
	return r
}

func seqBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 13)
	}
	return b
}

func TestOffloadedSendRecv(t *testing.T) {
	r := newRig(2)
	msg := seqBytes(4096)
	got := make([]byte, 4096)
	var postCost vclock.Time
	r.k.Go("app0", func(tk *vclock.Task) {
		start := tk.Now()
		h := r.offs[0].Submit(tk, func(ot *vclock.Task) proto.Req {
			return r.engs[0].Isend(ot, msg, 1, 5, 0)
		})
		postCost = tk.Now() - start
		waitWithDeadline(tk, r.offs[0], 10_000_000, h)
	})
	r.k.Go("app1", func(tk *vclock.Task) {
		h := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
			return r.engs[1].Irecv(ot, got, 0, 5, 0)
		})
		waitWithDeadline(tk, r.offs[1], 10_000_000, h)
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("data corrupted through offload path")
	}
	// The application-side post must cost exactly EnqueueCost (Fig 4:
	// constant ~140 ns regardless of message size).
	if postCost != vclock.Time(r.p.EnqueueCost) {
		t.Fatalf("post cost %d ns, want %v", postCost, r.p.EnqueueCost)
	}
}

func TestOffloadPostCostIndependentOfSize(t *testing.T) {
	for _, n := range []int{8, 4096, 128 << 10, 2 << 20} {
		r := newRig(2)
		var post vclock.Time
		msg := seqBytes(n)
		got := make([]byte, n)
		r.k.Go("app0", func(tk *vclock.Task) {
			start := tk.Now()
			h := r.offs[0].Submit(tk, func(ot *vclock.Task) proto.Req {
				return r.engs[0].Isend(ot, msg, 1, 0, 0)
			})
			post = tk.Now() - start
			r.offs[0].Wait(tk, h)
		})
		r.k.Go("app1", func(tk *vclock.Task) {
			h := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
				return r.engs[1].Irecv(ot, got, 0, 0, 0)
			})
			r.offs[1].Wait(tk, h)
		})
		r.k.Run()
		if post != vclock.Time(r.p.EnqueueCost) {
			t.Fatalf("size %d: post %d ns, want constant %v", n, post, r.p.EnqueueCost)
		}
	}
}

// TestAsynchronousProgressOverlap: the offload thread must complete a
// rendezvous transfer during application compute (paper §3.2, Fig 2).
func TestAsynchronousProgressOverlap(t *testing.T) {
	r := newRig(2)
	n := r.p.EagerThreshold * 4
	msg := seqBytes(n)
	got := make([]byte, n)
	var waitTime vclock.Time
	r.k.Go("app0", func(tk *vclock.Task) {
		h := r.offs[0].Submit(tk, func(ot *vclock.Task) proto.Req {
			return r.engs[0].Isend(ot, msg, 1, 0, 0)
		})
		tk.Sleep(10_000_000) // plenty of compute
		start := tk.Now()
		r.offs[0].Wait(tk, h)
		waitTime = tk.Now() - start
	})
	r.k.Go("app1", func(tk *vclock.Task) {
		h := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
			return r.engs[1].Irecv(ot, got, 0, 0, 0)
		})
		tk.Sleep(10_000_000)
		r.offs[1].Wait(tk, h)
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("data corrupted")
	}
	if waitTime > 10_000 {
		t.Fatalf("wait %d ns — rendezvous did not overlap with compute", waitTime)
	}
}

// TestBlockingConversionDoesNotStall: thread A's blocking recv (no sender
// yet) must not prevent thread B's send from progressing (§3.3).
func TestBlockingConversionDoesNotStall(t *testing.T) {
	r := newRig(2)
	var bDone vclock.Time
	r.k.Go("rank0", func(tk *vclock.Task) {
		// Thread A: blocking recv that will be satisfied only much later.
		lateBuf := make([]byte, 64)
		r.k.Go("rank0.threadA", func(ta *vclock.Task) {
			h := r.offs[0].Submit(ta, func(ot *vclock.Task) proto.Req {
				return r.engs[0].Irecv(ot, lateBuf, 1, 99, 0)
			})
			r.offs[0].Wait(ta, h)
		})
		// Thread B: a send that must complete promptly.
		r.k.Go("rank0.threadB", func(tb *vclock.Task) {
			h := r.offs[0].Submit(tb, func(ot *vclock.Task) proto.Req {
				return r.engs[0].Isend(ot, seqBytes(64), 1, 1, 0)
			})
			r.offs[0].Wait(tb, h)
			bDone = tb.Now()
		})
	})
	r.k.Go("rank1", func(tk *vclock.Task) {
		got := make([]byte, 64)
		h := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
			return r.engs[1].Irecv(ot, got, 0, 1, 0)
		})
		r.offs[1].Wait(tk, h)
		// Satisfy the late recv only after 5 ms.
		tk.Sleep(5_000_000)
		h2 := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
			return r.engs[1].Isend(ot, seqBytes(64), 0, 99, 0)
		})
		r.offs[1].Wait(tk, h2)
	})
	r.k.Run()
	if bDone == 0 || bDone > 1_000_000 {
		t.Fatalf("thread B's send completed at %d ns — stalled behind thread A's blocking recv", bDone)
	}
}

// TestManyOperationsRecyclePool: far more operations than pool slots must
// work as long as requests are waited on (slots recycle through the
// lock-free free list).
func TestManyOperationsRecyclePool(t *testing.T) {
	p := model.Endeavor()
	p.RanksPerNode = 1
	p.RequestPoolSize = 4 // tiny pool to force heavy recycling
	r := newRigP(2, p)
	const iters = 200
	r.k.Go("app0", func(tk *vclock.Task) {
		for i := 0; i < iters; i++ {
			h := r.offs[0].Submit(tk, func(ot *vclock.Task) proto.Req {
				return r.engs[0].Isend(ot, seqBytes(128), 1, i, 0)
			})
			r.offs[0].Wait(tk, h)
		}
	})
	r.k.Go("app1", func(tk *vclock.Task) {
		for i := 0; i < iters; i++ {
			got := make([]byte, 128)
			h := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
				return r.engs[1].Irecv(ot, got, 0, i, 0)
			})
			r.offs[1].Wait(tk, h)
		}
	})
	r.k.Run()
	if r.offs[0].Completed.Load() != iters {
		t.Fatalf("completed %d, want %d", r.offs[0].Completed.Load(), iters)
	}
}

// TestOffloadedCollective: a nonblocking collective issued through the
// offload thread completes and produces the right result.
func TestOffloadedCollective(t *testing.T) {
	const n = 4
	r := newRig(n)
	ranks := []int{0, 1, 2, 3}
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		buf := []byte{byte(i + 1)}
		results[i] = buf
		r.k.Go(fmt.Sprintf("app%d", i), func(tk *vclock.Task) {
			g := coll.Group{Ranks: ranks, Me: i, Comm: 0, Nodes: n}
			h := r.offs[i].Submit(tk, func(ot *vclock.Task) proto.Req {
				return coll.Iallreduce(ot, r.engs[i], g, buf, func(d, s []byte) { d[0] += s[0] }, 1)
			})
			r.offs[i].Wait(tk, h)
		})
	}
	r.k.Run()
	for i := 0; i < n; i++ {
		if results[i][0] != 10 {
			t.Fatalf("rank %d allreduce = %d, want 10", i, results[i][0])
		}
	}
}

// TestConcurrentSubmittersScale reproduces the Fig 6 dynamic: many threads
// of one rank submitting concurrently pay only the enqueue cost each, with
// no global-lock serialization.
func TestConcurrentSubmittersScale(t *testing.T) {
	r := newRig(2)
	const threads = 8
	post := make([]vclock.Time, threads)
	r.k.Go("rank0", func(tk *vclock.Task) {
		for i := 0; i < threads; i++ {
			i := i
			r.k.Go(fmt.Sprintf("thr%d", i), func(ta *vclock.Task) {
				start := ta.Now()
				h := r.offs[0].Submit(ta, func(ot *vclock.Task) proto.Req {
					return r.engs[0].Isend(ot, seqBytes(64), 1, i, 0)
				})
				post[i] = ta.Now() - start
				r.offs[0].Wait(ta, h)
			})
		}
	})
	r.k.Go("rank1", func(tk *vclock.Task) {
		var hs []Handle
		for i := 0; i < threads; i++ {
			got := make([]byte, 64)
			hs = append(hs, r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
				return r.engs[1].Irecv(ot, got, 0, i, 0)
			}))
		}
		r.offs[1].WaitAll(tk, hs...)
	})
	r.k.Run()
	for i, p := range post {
		if p != vclock.Time(r.p.EnqueueCost) {
			t.Fatalf("thread %d post cost %d, want %v (lock-free queue must not serialize)", i, p, r.p.EnqueueCost)
		}
	}
}
