package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mpioffload/internal/model"
	"mpioffload/internal/proto"
	"mpioffload/internal/queue"
	"mpioffload/internal/reqpool"
	"mpioffload/internal/vclock"
)

// TestRealGoroutineSubmitWaitRace drives the offloader's lock-free
// submit/complete/wait machinery — the sharded command queue, request pool,
// done flags and the atomic stats counters — from real goroutines, the way
// the fuzz/race tier already does for queue and reqpool in isolation. The
// cooperative kernel serializes everything, so the old plain-int64 stats
// never tripped the race detector there; this probe is what made them
// atomic.Int64. Run under -race in the Makefile race target.
func TestRealGoroutineSubmitWaitRace(t *testing.T) {
	const (
		producers = 4
		perThread = 500
	)
	// An offloader skeleton: queue + pool + stats, no kernel daemon — the
	// consumer goroutine below plays the offload agent.
	o := &Offloader{
		cq:   queue.NewSharded[*Cmd](producers-1, 64, 64), // one producer lands in overflow
		pool: reqpool.New(64),
	}
	total := int64(producers * perThread)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Consumer: batched drain, mark done, count — the run loop's queue side.
	go func() {
		batch := make([]*Cmd, 8)
		for {
			n := o.cq.DequeueBatch(batch)
			for _, cmd := range batch[:n] {
				o.Issued.Add(1)
				o.pool.SetDone(cmd.Slot)
				o.Completed.Add(1)
			}
			if n == 0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	// Producers: the Submit/Wait fast path — get a slot, enqueue to the
	// thread's shard, spin on the done flag, release the slot.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := o.cq.Register()
			for i := 0; i < perThread; i++ {
				slot := o.pool.Get()
				for slot == reqpool.None {
					runtime.Gosched()
					slot = o.pool.Get()
				}
				cmd := &Cmd{Slot: slot, id: o.Submitted.Add(1)}
				for !o.cq.TryEnqueue(shard, cmd) {
					o.QueueFullN.Add(1)
					runtime.Gosched()
				}
				for !o.Done(Handle(slot)) {
					runtime.Gosched()
				}
				o.pool.Put(slot)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if s, is, c := o.Submitted.Load(), o.Issued.Load(), o.Completed.Load(); s != total || is != total || c != total {
		t.Fatalf("stats submitted=%d issued=%d completed=%d, want %d each", s, is, c, total)
	}
	for n := 0; n < o.pool.Size(); n++ {
		if o.pool.Get() == reqpool.None {
			t.Fatalf("pool left %d slots allocated", o.pool.Size()-n)
		}
	}
}

// TestShardRegistrationPerThread: each submitting thread gets its own
// private shard (stable across fork-join waves, keyed by thread name), and
// threads beyond shardCount share the overflow shard without losing
// commands.
func TestShardRegistrationPerThread(t *testing.T) {
	p := model.Endeavor()
	p.RanksPerNode = 1
	r := newRigP(2, p)
	const threads = shardCount + 2 // two more submitting threads than shards
	r.k.Go("rank0", func(tk *vclock.Task) {
		for i := 0; i < threads; i++ {
			i := i
			r.k.Go(fmt.Sprintf("rank0.thr%d", i), func(ta *vclock.Task) {
				for it := 0; it < 3; it++ {
					h := r.offs[0].Submit(ta, func(ot *vclock.Task) proto.Req {
						return r.engs[0].Isend(ot, seqBytes(16), 1, i*10+it, 0)
					})
					r.offs[0].Wait(ta, h)
				}
			})
		}
	})
	r.k.Go("rank1", func(tk *vclock.Task) {
		for i := 0; i < threads; i++ {
			for it := 0; it < 3; it++ {
				h := r.offs[1].Submit(tk, func(ot *vclock.Task) proto.Req {
					return r.engs[1].Irecv(ot, make([]byte, 16), 0, i*10+it, 0)
				})
				r.offs[1].Wait(tk, h)
			}
		}
	})
	r.k.Run()
	want := int64(threads * 3)
	if c := r.offs[0].Completed.Load(); c != want {
		t.Fatalf("rank0 completed %d commands, want %d", c, want)
	}
}
