// Package core implements the paper's central contribution (§3): the MPI
// software-offload infrastructure.
//
// One dedicated offload agent per rank is the only thread that ever enters
// the (simulated) MPI library. Application threads — any number of them,
// concurrently — serialize their MPI calls into commands and insert them
// into a sharded lock-free command queue (internal/queue.Sharded): each
// registered thread owns a private SPSC shard, unregistered threads share
// an MPMC overflow shard, and the agent drains the shards in batches,
// walking only the occupied ones. The request handle returned to the
// application is an index into the lock-free request pool
// (internal/reqpool) whose done flags signal completion.
//
// The agent:
//
//  1. drains the command queue, issuing the real MPI calls funneled
//     (no global lock is ever taken — §3.3: mutual exclusion is elided);
//  2. whenever the queue is empty, drives MPI_Testany-style progress over
//     its in-flight requests (§3.2), guaranteeing asynchronous progress;
//  3. sets the request's done flag on completion, which is all an
//     application MPI_Wait has to check.
//
// Blocking application calls are converted to their nonblocking
// equivalents plus a done-flag wait (§3.3), so one thread's blocking call
// never stalls the offload agent or other threads' communication.
//
// The command queue and request pool are real lock-free Go data
// structures (atomics); under the deterministic simulation they are
// exercised through the same code paths they would run under true
// concurrency, and their concurrent correctness is stress-tested
// separately.
package core

import (
	"fmt"
	"sync/atomic"

	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/proto"
	"mpioffload/internal/queue"
	"mpioffload/internal/reqpool"
	"mpioffload/internal/vclock"
)

// Handle identifies an offloaded operation. It is the offload
// infrastructure's stand-in for MPI_Request (§3.1): the operation's slot in
// the request pool.
type Handle int

// Cmd is one serialized MPI call traveling through the command queue.
type Cmd struct {
	Slot int
	// Issue performs the real MPI call on the offload thread and returns
	// the request to track, or nil if the operation completed inline.
	Issue func(t *vclock.Task) proto.Req
	id    int64 // submission sequence number (trace span id)
	enqTS int64 // virtual ns at enqueue (stamped before insertion: the
	// consumer may dequeue the command the moment it lands, so the stamp
	// must already be there for the queue-wait histogram)
}

type inflightEntry struct {
	slot  int
	id    int64
	deqTS int64 // virtual ns at dequeue (offload service histogram)
	req   proto.Req
}

// Offloader owns one rank's offload agent, command queue and request pool.
// Only the agent task touches inflight and slotEv.
type Offloader struct {
	Eng *proto.Engine
	P   *model.Profile

	cq       *queue.Sharded[*Cmd]
	pool     *reqpool.Pool
	inflight []inflightEntry
	slotEv   map[int]*vclock.Event // parked waiters by slot

	// shards maps a submitting thread's name to its private command-queue
	// shard (owned by cooperative contexts).
	shards map[string]int

	// Stats are atomic: they are incremented from application-thread
	// (Submit) and offload-thread (run) contexts, which the cooperative
	// simulation serializes but real goroutines — the -race probes, and any
	// future wall-clock driver — do not.
	Submitted  atomic.Int64
	Issued     atomic.Int64
	Completed  atomic.Int64
	Failed     atomic.Int64 // completions carrying a watchdog error
	IdleWaits  atomic.Int64
	QueueFullN atomic.Int64

	// Depth distributions, fed by the queue's consumer-side depth sampler
	// and the pool's occupancy sampler. Atomic: the pool sampler runs on
	// concurrent submitting threads under the real-goroutine race probes.
	QDepthH  obs.AtomicHist
	PoolOccH obs.AtomicHist
}

// Submission-path sizes. shardCount is the number of private command-queue
// shards — one per registered application thread; threads beyond it share
// the overflow shard. cmdBatchMax bounds how many commands the agent drains
// per wakeup before it runs a Testany progress round — the batching that
// amortizes the dequeue/progress alternation under bursty submission.
const (
	shardCount  = 16
	cmdBatchMax = 16
)

// New creates the offloader for eng's rank and spawns its offload agent as
// a daemon task (it lives for the lifetime of the simulation, §3.4: the
// thread is spawned at MPI_Init).
func New(k *vclock.Kernel, eng *proto.Engine) *Offloader {
	p := eng.P
	o := &Offloader{
		Eng:    eng,
		P:      p,
		cq:     queue.NewSharded[*Cmd](shardCount, p.CommandQueueCap, p.CommandQueueCap),
		pool:   reqpool.New(p.RequestPoolSize),
		slotEv: make(map[int]*vclock.Event),
		shards: make(map[string]int),
	}
	o.cq.SetDepthSampler(o.QDepthH.Observe)
	o.pool.SetOccupancySampler(o.PoolOccH.Observe)
	k.GoDaemon(fmt.Sprintf("offload.%d", eng.Rank), o.run)
	return o
}

// shardFor returns the submitting thread's command-queue shard,
// registering it on first submission. Shards are keyed by task name:
// fork-join thread teams reuse names across waves (rankN.thrM), so a
// bounded thread population keeps its private shards across Parallel
// regions instead of leaking one shard per wave. Only cooperative
// (kernel-scheduled) contexts call this, so the map needs no lock.
func (o *Offloader) shardFor(t *vclock.Task) int {
	shard, ok := o.shards[t.Name]
	if !ok {
		shard = o.cq.Register()
		o.shards[t.Name] = shard
	}
	return shard
}

// run is the offload agent's main loop.
func (o *Offloader) run(t *vclock.Task) {
	batch := make([]*Cmd, cmdBatchMax)
	for {
		seq := o.Eng.Seq()
		rec := o.Eng.Obs

		// 1. Service the command queue first (application calls waiting):
		//    drain up to cmdBatchMax commands in one wakeup — walking only
		//    the occupied submission shards — before the next Testany round.
		if n := o.cq.DequeueBatch(batch); n > 0 {
			t0 := t.Now()
			for i, cmd := range batch[:n] {
				batch[i] = nil // release the reference once issued
				deq := t.Now()
				rec.CmdDequeued(deq, cmd.id, o.cq.Len()+n-1-i, deq-cmd.enqTS)
				t.SleepF(o.P.DequeueCost)
				req := cmd.Issue(t)
				o.Issued.Add(1)
				if req == nil || req.Done() {
					o.noteFailed(req)
					o.complete(cmd.Slot, cmd.id, flowOf(req), t.Now()-deq)
				} else {
					o.inflight = append(o.inflight, inflightEntry{cmd.Slot, cmd.id, deq, req})
				}
			}
			rec.DutyIssueBatch(t.Now()-t0, n)
			continue
		}

		// 2. Queue empty: drive progress over in-flight requests
		//    (MPI_Testany, §3.2) — and over anything the NIC delivered
		//    even with no local request pending (unexpected messages).
		if len(o.inflight) > 0 || o.Eng.PendingInbox() > 0 {
			t0 := t.Now()
			o.Eng.Progress(t)
			t.SleepF(o.P.DoneFlagCost)
			kept := o.inflight[:0]
			completed := false
			for _, e := range o.inflight {
				if e.req.Done() {
					o.noteFailed(e.req)
					o.complete(e.slot, e.id, flowOf(e.req), t.Now()-e.deqTS)
					completed = true
				} else {
					kept = append(kept, e)
				}
			}
			o.inflight = kept
			rec.DutyProgress(t.Now() - t0)
			if completed || !o.cq.Empty() {
				continue
			}
		}

		// 3. Nothing to do: park until a doorbell rings (a new command) or
		//    the NIC delivers something. A real offload thread busy-spins
		//    here — the dedicated core is modelled by the thread-count
		//    accounting in the sim layer, not by burning virtual events.
		if o.Eng.Seq() == seq && o.cq.Empty() {
			o.IdleWaits.Add(1)
			t0 := t.Now()
			o.Eng.AwaitChange(t, seq)
			rec.DutyIdle(t.Now() - t0)
		} else {
			// Something changed while we worked; re-poll after one gap.
			t.SleepF(o.P.PollGap)
		}
	}
}

// noteFailed counts completions the watchdog forced with an error — the
// offload thread itself never hangs on them; it just reports them done and
// lets the application observe Status.Err.
func (o *Offloader) noteFailed(req proto.Req) {
	if op, ok := req.(*proto.Op); ok && op.Err != nil {
		o.Failed.Add(1)
	}
}

// flowOf extracts the causal flow id the request carries (0 for
// collective schedules and inline-nil requests).
func flowOf(req proto.Req) int64 {
	if op, ok := req.(*proto.Op); ok && op != nil {
		return op.Flow
	}
	return 0
}

func (o *Offloader) complete(slot int, id, flow, serviceNs int64) {
	o.pool.SetDone(slot)
	o.Completed.Add(1)
	o.Eng.Obs.CmdCompleted(o.Eng.K.Now(), id, flow, serviceNs)
	if ev := o.slotEv[slot]; ev != nil {
		ev.Broadcast(o.Eng.K)
		delete(o.slotEv, slot)
	}
	o.Eng.Bump() // wake application threads spinning on done flags
}

// Submit serializes an MPI call into a command, inserts it into the
// thread's command-queue shard, and returns the request handle. This
// charges only EnqueueCost to the calling application thread — the entire
// point of the offload approach (Fig 4's flat ~140 ns post time).
func (o *Offloader) Submit(t *vclock.Task, issue func(t *vclock.Task) proto.Req) Handle {
	shard := o.shardFor(t)
	slot := o.pool.Get()
	for slot == reqpool.None {
		// Pool exhausted: wait for completions to recycle slots.
		seq := o.Eng.Seq()
		o.Eng.AwaitChange(t, seq)
		slot = o.pool.Get()
	}
	cmd := &Cmd{Slot: slot, Issue: issue, id: o.Submitted.Add(1)}
	// Stamp the enqueue time before insertion and record the event before
	// yielding: the offload thread may dequeue the command the moment it
	// lands, and the trace must stay chronological (enqueue before dequeue)
	// with a non-negative queue wait.
	cmd.enqTS = t.Now()
	for !o.cq.TryEnqueue(shard, cmd) {
		o.QueueFullN.Add(1)
		seq := o.Eng.Seq()
		o.Eng.AwaitChange(t, seq)
		cmd.enqTS = t.Now()
	}
	o.Eng.Obs.CmdEnqueued(cmd.enqTS, obs.TaskClass(t.Name), cmd.id, o.cq.Len())
	t.SleepF(o.P.EnqueueCost)
	o.Eng.Bump() // doorbell
	return Handle(slot)
}

// Done reports (without consuming) whether the operation has completed.
func (o *Offloader) Done(h Handle) bool { return o.pool.Done(int(h)) }

// Wait blocks (spinning on the done flag) until the operation completes,
// then releases the handle. Short waits spin per engine activity (so the
// microsecond-scale timing of a ping-pong is exact); long waits park on a
// per-slot event the agent broadcasts at completion.
func (o *Offloader) Wait(t *vclock.Task, h Handle) {
	const pollRounds = 32
	slot := int(h)
	for round := 0; !o.pool.Done(slot); round++ {
		if round >= pollRounds {
			ev := o.slotEv[slot]
			if ev == nil {
				ev = vclock.NewEvent("offload.wait")
				o.slotEv[slot] = ev
			}
			for !o.pool.Done(slot) {
				t.Wait(ev)
			}
			break
		}
		seq := o.Eng.Seq()
		if o.pool.Done(slot) {
			break
		}
		o.Eng.AwaitChange(t, seq)
	}
	t.SleepF(o.P.DoneFlagCost)
	o.pool.Put(slot)
}

// WaitAll waits for a set of handles and releases them.
func (o *Offloader) WaitAll(t *vclock.Task, hs ...Handle) {
	for _, h := range hs {
		o.Wait(t, h)
	}
}

// InFlight reports the number of requests the agent is tracking.
func (o *Offloader) InFlight() int { return len(o.inflight) }

// QueueLen reports the command-queue depth.
func (o *Offloader) QueueLen() int { return o.cq.Len() }

// QueueHighWater reports the deepest the command queue has been.
func (o *Offloader) QueueHighWater() int { return o.cq.HighWater() }

// PoolHighWater reports the deepest the request-pool occupancy has been.
func (o *Offloader) PoolHighWater() int { return o.pool.HighWater() }
