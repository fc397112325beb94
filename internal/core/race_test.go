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
	ag := &agentState{
		cq:   queue.NewSharded[*Cmd](producers-1, 64, 64), // one producer lands in overflow
		pool: reqpool.New(64),
	}
	o := &Offloader{agents: []*agentState{ag}, poolSize: 64, batchMax: 8}
	total := int64(producers * perThread)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Consumer: batched drain, mark done, count — the run loop's queue side.
	go func() {
		batch := make([]*Cmd, o.batchMax)
		for {
			n := ag.cq.DequeueBatch(batch)
			for _, cmd := range batch[:n] {
				o.Issued.Add(1)
				ag.pool.SetDone(cmd.Slot)
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
			shard := ag.cq.Register()
			for i := 0; i < perThread; i++ {
				slot := ag.pool.Get()
				for slot == reqpool.None {
					runtime.Gosched()
					slot = ag.pool.Get()
				}
				cmd := &Cmd{Slot: slot, id: o.Submitted.Add(1)}
				for !ag.cq.TryEnqueue(shard, cmd) {
					o.QueueFullN.Add(1)
					runtime.Gosched()
				}
				for !o.Done(Handle(slot)) {
					runtime.Gosched()
				}
				ag.pool.Put(slot)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if s, is, c := o.Submitted.Load(), o.Issued.Load(), o.Completed.Load(); s != total || is != total || c != total {
		t.Fatalf("stats submitted=%d issued=%d completed=%d, want %d each", s, is, c, total)
	}
	if ag.pool.InUse() != 0 {
		t.Fatalf("pool left %d slots allocated", ag.pool.InUse())
	}
}

// TestMultiAgentPartitionedPoolRace drives the multi-agent layout — two
// agents, each with its own sharded queue, request-pool partition and
// consumer goroutine — from real producer goroutines split across the
// agents. Handles travel through the public encoding (agent*poolSize +
// slot), so the test pins both the partitioning (no cross-agent slot
// traffic) and the absence of any shared hot-path line between agents.
// Runs under -race in the Makefile race target.
func TestMultiAgentPartitionedPoolRace(t *testing.T) {
	const (
		agents     = 2
		perAgent   = 2 // producers per agent
		perThread  = 400
		poolSize   = 32
		shardCount = 2
	)
	o := &Offloader{poolSize: poolSize, batchMax: 8}
	for i := 0; i < agents; i++ {
		o.agents = append(o.agents, &agentState{
			idx:  i,
			cq:   queue.NewSharded[*Cmd](shardCount, 64, 64),
			pool: reqpool.New(poolSize),
		})
	}
	total := int64(agents * perAgent * perThread)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, ag := range o.agents {
		ag := ag
		go func() { // one consumer per agent, as in the real engine
			batch := make([]*Cmd, o.batchMax)
			for {
				n := ag.cq.DequeueBatch(batch)
				for _, cmd := range batch[:n] {
					o.Issued.Add(1)
					ag.pool.SetDone(cmd.Slot)
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
		for p := 0; p < perAgent; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shard := ag.cq.Register()
				for i := 0; i < perThread; i++ {
					slot := ag.pool.Get()
					for slot == reqpool.None {
						runtime.Gosched()
						slot = ag.pool.Get()
					}
					cmd := &Cmd{Slot: slot, id: o.Submitted.Add(1)}
					for !ag.cq.TryEnqueue(shard, cmd) {
						runtime.Gosched()
					}
					h := Handle(ag.idx*poolSize + slot)
					for !o.Done(h) {
						runtime.Gosched()
					}
					ag.pool.Put(slot)
				}
			}()
		}
	}
	wg.Wait()
	close(stop)
	if s, is, c := o.Submitted.Load(), o.Issued.Load(), o.Completed.Load(); s != total || is != total || c != total {
		t.Fatalf("stats submitted=%d issued=%d completed=%d, want %d each", s, is, c, total)
	}
	for i, ag := range o.agents {
		if ag.pool.InUse() != 0 {
			t.Fatalf("agent %d pool left %d slots allocated", i, ag.pool.InUse())
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
	if got := r.offs[0].Shards(); got != shardCount {
		t.Fatalf("rank0 shards = %d, want %d", got, shardCount)
	}
	// All shardCount private shards were claimed; the surplus threads fell
	// back to overflow (registration saturates at the shard count).
	if got := r.offs[0].RegisteredThreads(); got != shardCount {
		t.Fatalf("rank0 registered threads = %d, want %d (saturated)", got, shardCount)
	}
	want := int64(threads * 3)
	if c := r.offs[0].Completed.Load(); c != want {
		t.Fatalf("rank0 completed %d commands, want %d", c, want)
	}
}
