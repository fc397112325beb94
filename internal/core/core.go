// Package core implements the paper's central contribution (§3): the MPI
// software-offload infrastructure.
//
// One or more dedicated offload agents per rank are the only threads that
// ever enter the (simulated) MPI library. Application threads — any number
// of them, concurrently — serialize their MPI calls into commands and
// insert them into a sharded lock-free command queue (internal/queue.
// Sharded): each registered thread owns a private SPSC shard, unregistered
// threads share an MPMC overflow shard, and the owning agent drains its
// shards in batches, walking only the occupied ones. The request handle
// returned to the application encodes an index into the owning agent's
// lock-free request pool (internal/reqpool) whose done flags signal
// completion.
//
// Each agent:
//
//  1. drains its command queue, issuing the real MPI calls funneled
//     (no global lock is ever taken — §3.3: mutual exclusion is elided);
//  2. whenever the queue is empty, drives MPI_Testany-style progress over
//     its in-flight requests (§3.2), guaranteeing asynchronous progress;
//  3. sets the request's done flag on completion, which is all an
//     application MPI_Wait/Test has to check.
//
// The paper fixes the agent count at one; this engine generalizes it. Each
// agent owns a disjoint group of submission shards, its own request-pool
// partition and its own in-flight set — agents share no hot-path state, so
// going from one agent to N adds no locks anywhere. Submitting threads are
// assigned to agents round-robin and stay put: per-thread FIFO lives in
// one agent's shard, so MPI's non-overtaking rule is never at risk. The
// agent count is fixed for the run (Profile.Agents); the default — one
// agent — behaves bit-identically to the original single-thread design.
//
// Blocking application calls are converted to their nonblocking
// equivalents plus a done-flag wait (§3.3), so one thread's blocking call
// never stalls an offload agent or other threads' communication.
//
// The command queues and request pools are real lock-free Go data
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
// infrastructure's stand-in for MPI_Request (§3.1) and encodes both the
// owning agent and the slot in that agent's request pool:
// agent*poolSize + slot. With one agent the handle is the pool index
// itself, exactly as in the single-agent design.
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

// agentState is one offload agent: a disjoint shard group (its own sharded
// command queue), its own request-pool partition and in-flight set. Only
// the owning agent task touches inflight/slotEv; only threads assigned to
// the agent touch its queue and pool — there is no cross-agent shared
// line.
type agentState struct {
	idx      int
	cq       *queue.Sharded[*Cmd]
	pool     *reqpool.Pool
	inflight []inflightEntry
	slotEv   map[int]*vclock.Event // parked waiters by slot
}

// threadState is the per-submitting-thread assignment record: the owning
// agent and the thread's private shard in that agent's command queue.
type threadState struct {
	agent, shard int
}

// Offloader owns one rank's offload agents, command queues and request
// pools.
type Offloader struct {
	Eng *proto.Engine
	P   *model.Profile

	agents   []*agentState
	poolSize int
	batchMax int

	// Thread→agent assignment (owned by cooperative contexts).
	assignRR int                     // round-robin cursor
	threads  map[string]*threadState // submitting thread name → assignment

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

	// Depth distributions, fed by every queue's consumer-side depth sampler
	// and every pool's occupancy sampler. Atomic: the pool sampler runs on
	// concurrent submitting threads under the real-goroutine race probes.
	QDepthH  obs.AtomicHist
	PoolOccH obs.AtomicHist
}

// Per-agent submission-path sizes. shardCount is the number of private
// command-queue shards — one per registered application thread; threads
// beyond it share the overflow shard. cmdBatchMax bounds how many commands
// an agent drains per wakeup before it runs a Testany progress round — the
// batching that amortizes the dequeue/progress alternation under bursty
// submission.
const (
	shardCount  = 16
	cmdBatchMax = 16
)

// New creates the offloader for eng's rank and spawns its offload agents
// as daemon tasks (they live for the lifetime of the simulation, §3.4: the
// threads are spawned at MPI_Init). Profile.Agents selects the agent
// count (default 1 — the paper's configuration).
func New(k *vclock.Kernel, eng *proto.Engine) *Offloader {
	p := eng.P
	agents := p.Agents
	if agents <= 0 {
		agents = 1
	}
	o := &Offloader{
		Eng:      eng,
		P:        p,
		poolSize: p.RequestPoolSize,
		batchMax: cmdBatchMax,
		threads:  make(map[string]*threadState),
	}
	for i := 0; i < agents; i++ {
		ag := &agentState{
			idx:    i,
			cq:     queue.NewSharded[*Cmd](shardCount, p.CommandQueueCap, p.CommandQueueCap),
			pool:   reqpool.New(p.RequestPoolSize),
			slotEv: make(map[int]*vclock.Event),
		}
		ag.cq.SetDepthSampler(o.QDepthH.Observe)
		ag.pool.SetOccupancySampler(o.PoolOccH.Observe)
		o.agents = append(o.agents, ag)
	}
	for i, ag := range o.agents {
		ag := ag
		name := fmt.Sprintf("offload.%d", eng.Rank)
		if i > 0 {
			name = fmt.Sprintf("offload.%d.%d", eng.Rank, i)
		}
		k.GoDaemon(name, func(t *vclock.Task) { o.run(t, ag) })
	}
	return o
}

func (o *Offloader) decode(h Handle) (*agentState, int) {
	a := int(h) / o.poolSize
	return o.agents[a], int(h) % o.poolSize
}

// threadStateFor returns the submitting thread's assignment record,
// creating it (round-robin over the agents) on first submission. Records
// are keyed by task name: fork-join thread teams reuse names across waves
// (rankN.thrM), so a bounded thread population keeps its private shards
// across Parallel regions instead of leaking one shard per wave. Only
// cooperative (kernel-scheduled) contexts call this, so the map needs no
// lock.
func (o *Offloader) threadStateFor(t *vclock.Task) *threadState {
	ts := o.threads[t.Name]
	if ts == nil {
		agent := o.assignRR % len(o.agents)
		o.assignRR++
		ts = &threadState{agent: agent, shard: o.agents[agent].cq.Register()}
		o.threads[t.Name] = ts
	}
	return ts
}

// run is one offload agent's main loop.
func (o *Offloader) run(t *vclock.Task, ag *agentState) {
	batch := make([]*Cmd, o.batchMax)
	for {
		seq := o.Eng.Seq()
		rec := o.Eng.Obs

		// 1. Service the command queue first (application calls waiting):
		//    drain up to batchMax commands in one wakeup — walking only the
		//    occupied submission shards — before the next Testany round.
		if n := ag.cq.DequeueBatch(batch); n > 0 {
			t0 := t.Now()
			for i, cmd := range batch[:n] {
				batch[i] = nil // release the reference once issued
				deq := t.Now()
				rec.CmdDequeued(deq, cmd.id, ag.cq.Len()+n-1-i, deq-cmd.enqTS)
				t.SleepF(o.P.DequeueCost)
				req := cmd.Issue(t)
				o.Issued.Add(1)
				if req == nil || req.Done() {
					o.noteFailed(req)
					o.complete(ag, cmd.Slot, cmd.id, flowOf(req), t.Now()-deq)
				} else {
					ag.inflight = append(ag.inflight, inflightEntry{cmd.Slot, cmd.id, deq, req})
				}
			}
			rec.DutyIssueBatch(t.Now()-t0, n)
			continue
		}

		// 2. Queue empty: drive progress over in-flight requests
		//    (MPI_Testany, §3.2) — and over anything the NIC delivered
		//    even with no local request pending (unexpected messages,
		//    one-sided accumulates needing target-side software).
		if len(ag.inflight) > 0 || o.Eng.PendingInbox() > 0 {
			t0 := t.Now()
			o.Eng.Progress(t)
			t.SleepF(o.P.DoneFlagCost)
			kept := ag.inflight[:0]
			completed := false
			for _, e := range ag.inflight {
				if e.req.Done() {
					o.noteFailed(e.req)
					o.complete(ag, e.slot, e.id, flowOf(e.req), t.Now()-e.deqTS)
					completed = true
				} else {
					kept = append(kept, e)
				}
			}
			ag.inflight = kept
			rec.DutyProgress(t.Now() - t0)
			if completed || !ag.cq.Empty() {
				continue
			}
		}

		// 3. Nothing to do: park until a doorbell rings (a new command) or
		//    the NIC delivers something. A real offload thread busy-spins
		//    here — the dedicated core is modelled by the thread-count
		//    accounting in the sim layer, not by burning virtual events.
		if o.Eng.Seq() == seq && ag.cq.Empty() {
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

func (o *Offloader) complete(ag *agentState, slot int, id, flow, serviceNs int64) {
	ag.pool.SetDone(slot)
	o.Completed.Add(1)
	o.Eng.Obs.CmdCompleted(o.Eng.K.Now(), id, flow, serviceNs)
	if ev := ag.slotEv[slot]; ev != nil {
		ev.Broadcast(o.Eng.K)
		delete(ag.slotEv, slot)
	}
	o.Eng.Bump() // wake application threads spinning on done flags
}

// Submit serializes an MPI call into a command, inserts it into the
// command queue of the thread's agent, and returns the request handle.
// This charges only EnqueueCost to the calling application thread — the
// entire point of the offload approach (Fig 4's flat ~140 ns post time).
func (o *Offloader) Submit(t *vclock.Task, issue func(t *vclock.Task) proto.Req) Handle {
	ts := o.threadStateFor(t)
	ag := o.agents[ts.agent]
	slot := ag.pool.Get()
	for slot == reqpool.None {
		// Pool exhausted: wait for completions to recycle slots.
		seq := o.Eng.Seq()
		o.Eng.AwaitChange(t, seq)
		slot = ag.pool.Get()
	}
	cmd := &Cmd{Slot: slot, Issue: issue, id: o.Submitted.Add(1)}
	// Stamp the enqueue time before insertion and record the event before
	// yielding: the offload thread may dequeue the command the moment it
	// lands, and the trace must stay chronological (enqueue before dequeue)
	// with a non-negative queue wait.
	cmd.enqTS = t.Now()
	for !ag.cq.TryEnqueue(ts.shard, cmd) {
		o.QueueFullN.Add(1)
		seq := o.Eng.Seq()
		o.Eng.AwaitChange(t, seq)
		cmd.enqTS = t.Now()
	}
	o.Eng.Obs.CmdEnqueued(cmd.enqTS, obs.TaskClass(t.Name), cmd.id, ag.cq.Len())
	t.SleepF(o.P.EnqueueCost)
	o.Eng.Bump() // doorbell
	return Handle(ts.agent*o.poolSize + slot)
}

// Done reports (without consuming) whether the operation has completed.
func (o *Offloader) Done(h Handle) bool {
	ag, slot := o.decode(h)
	return ag.pool.Done(slot)
}

// Test checks for completion, charging the done-flag read. On success the
// handle is released and must not be reused.
func (o *Offloader) Test(t *vclock.Task, h Handle) bool {
	t.SleepF(o.P.DoneFlagCost)
	ag, slot := o.decode(h)
	if ag.pool.Done(slot) {
		ag.pool.Put(slot)
		return true
	}
	return false
}

// Wait blocks (spinning on the done flag) until the operation completes,
// then releases the handle. Short waits spin per engine activity (so the
// microsecond-scale timing of a ping-pong is exact); long waits park on a
// per-slot event the owning agent broadcasts at completion.
func (o *Offloader) Wait(t *vclock.Task, h Handle) {
	const pollRounds = 32
	ag, slot := o.decode(h)
	for round := 0; !ag.pool.Done(slot); round++ {
		if round >= pollRounds {
			ev := ag.slotEv[slot]
			if ev == nil {
				ev = vclock.NewEvent("offload.wait")
				ag.slotEv[slot] = ev
			}
			for !ag.pool.Done(slot) {
				t.Wait(ev)
			}
			break
		}
		seq := o.Eng.Seq()
		if ag.pool.Done(slot) {
			break
		}
		o.Eng.AwaitChange(t, seq)
	}
	t.SleepF(o.P.DoneFlagCost)
	ag.pool.Put(slot)
}

// WaitAll waits for a set of handles and releases them.
func (o *Offloader) WaitAll(t *vclock.Task, hs ...Handle) {
	for _, h := range hs {
		o.Wait(t, h)
	}
}

// Agents reports the number of offload agents (Profile.Agents).
func (o *Offloader) Agents() int { return len(o.agents) }

// InFlight reports the number of requests the agents are tracking.
func (o *Offloader) InFlight() int {
	n := 0
	for _, ag := range o.agents {
		n += len(ag.inflight)
	}
	return n
}

// QueueLen reports the command-queue depth (summed across all agents'
// shards).
func (o *Offloader) QueueLen() int {
	n := 0
	for _, ag := range o.agents {
		n += ag.cq.Len()
	}
	return n
}

// QueueHighWater reports the deepest any agent's command queue has been.
func (o *Offloader) QueueHighWater() int {
	hw := 0
	for _, ag := range o.agents {
		if h := ag.cq.HighWater(); h > hw {
			hw = h
		}
	}
	return hw
}

// Shards reports the number of private command-queue shards per agent.
func (o *Offloader) Shards() int { return o.agents[0].cq.Shards() }

// RegisteredThreads reports how many thread registrations hold a private
// command-queue shard, summed across agents.
func (o *Offloader) RegisteredThreads() int {
	n := 0
	for _, ag := range o.agents {
		n += ag.cq.Registered()
	}
	return n
}

// PoolHighWater reports the deepest any agent's request-pool occupancy has
// been.
func (o *Offloader) PoolHighWater() int {
	hw := 0
	for _, ag := range o.agents {
		if h := ag.pool.HighWater(); h > hw {
			hw = h
		}
	}
	return hw
}
