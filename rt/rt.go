// Package rt is a real-time, genuinely concurrent implementation of the
// paper's offload design: ranks live in one process, application threads
// are goroutines, and time is wall-clock. It exists alongside the
// deterministic simulator to demonstrate the contribution as real code:
//
//   - Direct mode models MPI_THREAD_MULTIPLE: every operation takes the
//     rank's global mutex to touch the matching engine — application
//     threads contend exactly the way §2.2/Fig 6 describe.
//   - Offload mode is §3: application threads serialize calls into the
//     sharded lock-free command queue (internal/queue.Sharded) and receive
//     request-pool handles (internal/reqpool); a dedicated offload
//     goroutine is the only thread that touches the matching engine, so no
//     mutex exists at all, and it drives progress whenever idle.
//
// Submission is sharded (§3.3 under contention): a goroutine that calls
// Rank.RegisterThread gets a Thread handle backed by a private SPSC ring —
// posting is two plain stores, with no CAS on a shared cache line no
// matter how many threads post concurrently. Calls made directly on the
// Rank go through the shared MPMC overflow shard (the pre-sharding
// behaviour, kept as the measurable baseline). The offload goroutine
// drains all shards round-robin in batches of up to the cluster's
// CmdBatchMax before each progress round.
//
// The wire is pluggable (internal/transport): the default Loopback
// backend is the historical in-process "NIC" — each rank's inbox is a
// lock-free MPMC queue that senders enqueue into directly, payloads
// copied on send and on receive (the eager protocol's two copies) — while
// Options.Transport substitutes real Unix-domain sockets, and
// NewWorkerCluster runs each rank as its own OS process (launched by
// cmd/mpirun, rendezvousing through a shared directory). The command
// queue, request pool and offload loop are identical over every backend;
// only the wire calls differ. In Offload mode the agent stages each drained
// send and, after the batch, flushes every destination's frames with one
// transport call (one writev on a socket); Direct mode's doSend writes one
// frame per call under the lock. Those and the delivery upcall are all
// that touch the wire.
//
// Matching is exact (communicator, tag, source) — the wildcard-free common
// case — and non-overtaking per (source, tag) because the inbox preserves
// per-producer FIFO order.
//
// Each rank runs exactly one offload goroutine, the paper's configuration:
// it alone owns the rank's command queue, inbox and matching queues.
// Failures surface as error values from WaitErr — ErrTimeout, ErrRankFailed,
// ErrTruncate — and Stats exposes the counters and, when enabled, the
// queue-wait and service histograms.
//
// Completion wakes exactly the waiter. The paper's application threads
// spin on per-request done flags, which a dedicated core affords; here a
// blocked Wait parks at once on its request slot's own wake channel, and
// the completion sets the done flag and rings that channel alone (see
// park for the handshake). No spin, shared doorbell or timer sits on the
// completion path.
package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpioffload/internal/obs"
	"mpioffload/internal/queue"
	"mpioffload/internal/reqpool"
	"mpioffload/internal/transport"
)

// ErrTimeout is returned by WaitErr when a request misses the cluster's
// watchdog deadline (wall-clock here; the simulator's counterpart is
// mpi.ErrTimeout in virtual time).
var ErrTimeout = errors.New("rt: request deadline exceeded")

// ErrTruncate is returned by WaitErr when a message longer than the posted
// receive buffer arrived. The buffer contents are undefined (the payload is
// dropped, mirroring MPI_ERR_TRUNCATE); Wait reports it as a negative
// byte count.
var ErrTruncate = errors.New("rt: message truncated (receive buffer too small)")

// ErrRankFailed is returned by WaitErr when the watchdog deadline expires
// and the operation's peer rank has been killed (Cluster.KillRank) — the
// ULFM-style distinction between "slow" (ErrTimeout) and "dead". Use
// errors.Is to test for it.
var ErrRankFailed = errors.New("rt: peer rank failed")

// truncSentinel is the per-slot byte-count sentinel for a truncated
// receive: Wait surfaces it as a negative count, WaitErr decodes it to
// ErrTruncate.
const truncSentinel = -1

// Mode selects how application threads interact with the rank's engine.
type Mode int

// Direct takes a mutex per call (THREAD_MULTIPLE); Offload routes calls
// through the command queue to a dedicated goroutine (the paper's design).
const (
	Direct Mode = iota
	Offload
)

// String names the mode.
func (m Mode) String() string {
	if m == Offload {
		return "offload"
	}
	return "direct"
}

// message is a delivered payload awaiting its receive. pooled marks data as
// the socket reader's (transport.Frame.Pooled): landMessage hands it back
// with transport.Recycle once the bytes are copied out.
type message struct {
	src, tag int
	data     []byte
	pooled   bool
}

type matchKey struct{ src, tag int }

// pending is a posted receive awaiting a message.
type pending struct {
	slot int
	buf  []byte
}

// fifo is a ring-buffer queue that keeps its storage when it drains, so a
// stream through one match key allocates only while its backlog grows.
type fifo[T any] struct {
	buf     []T // length a power of two, or zero
	head, n int
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		nb := make([]T, max(8, 2*len(q.buf)))
		k := copy(nb, q.buf[q.head:])
		copy(nb[k:], q.buf[:q.head])
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the payload reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// matchQueues is one FIFO per match key. A drained FIFO stays in the map
// with its storage, so matching allocates nothing in steady state; the map
// holds one entry per (source, tag) pair the rank has ever queued under.
type matchQueues[T any] map[matchKey]*fifo[T]

func (m matchQueues[T]) push(k matchKey, v T) {
	q := m[k]
	if q == nil {
		q = new(fifo[T])
		m[k] = q
	}
	q.push(v)
}

// pop removes the oldest entry under k, reporting false when there is none.
func (m matchQueues[T]) pop(k matchKey) (T, bool) {
	if q := m[k]; q != nil && q.n > 0 {
		return q.pop(), true
	}
	var zero T
	return zero, false
}

// slotState is a request's state beside the pool's done flag.
type slotState struct {
	count atomic.Int32 // received byte count (truncSentinel = error)
	peer  atomic.Int32 // peer rank, so WaitErr can blame a dead peer
	// parked is set while the slot's waiter is blocked on wake; wake is
	// its capacity-1 doorbell, made by the first waiter that parks on the
	// slot and published to completers by the parked store.
	parked atomic.Bool
	wake   chan struct{}
}

// Rank is one process of the real-time cluster.
type Rank struct {
	id      int
	cluster *Cluster
	mode    Mode

	pool  *reqpool.Pool
	slots []slotState // per-request state, indexed like the pool

	// ep is the rank's attachment to the wire; flowSeq stamps outgoing
	// frames with the repo-wide causal flow id ((id+1)<<32 | seq).
	ep      transport.Endpoint
	flowSeq atomic.Uint64

	failed atomic.Bool // set by Cluster.KillRank; the rank's NIC goes dark

	// Matching state: owned by the offload goroutine in Offload mode,
	// guarded by mu in Direct mode.
	mu         chan struct{} // 1-token semaphore as the "global MPI lock"
	cq         *queue.Sharded[cmd]
	inbox      *queue.MPMC[message]
	posted     matchQueues[pending]
	unexpected matchQueues[message]

	// bell wakes whoever drains this rank's inbox when it is parked: the
	// idle offload agent in Offload mode, the parked waiters in Direct
	// mode, which have no agent to drain for them. napping counts the
	// goroutines parked on it; submitters and the delivery upcall ring it
	// only while napping > 0. A completion never rings it: it wakes its
	// one waiter through the slot's own wake channel.
	bell    chan struct{}
	napping atomic.Int32

	stop atomic.Bool

	// Stats counts operations for tests and diagnostics. Polls counts
	// engine progress polls (offload-loop wakeups, Direct-mode drains):
	// Polls / (Sends + Recvs) is the wall-clock PollsPerCompletion, the
	// polling-overhead figure the simulator tracks as a first-class
	// metric.
	Sends, Recvs, Progress, Polls atomic.Int64
	// WatchdogTrips counts WaitErr deadline expirations on this rank.
	WatchdogTrips atomic.Int64

	// Wall-clock latency histograms for the offload path, collected only
	// while Cluster.SetStatsEnabled(true): queue-wait (enqueue→dequeue) and
	// offload service (dequeue→operation done). Concurrent-safe.
	qwaitH, serviceH obs.AtomicHist
}

type cmdKind int

const (
	cmdSend cmdKind = iota
	cmdRecv
)

type cmd struct {
	kind  cmdKind
	slot  int
	peer  int
	tag   int
	buf   []byte
	enqNs int64 // wall-clock enqueue stamp; 0 unless stats are enabled
}

// Options tunes a cluster's offload submission path. The zero value
// selects the defaults.
type Options struct {
	// ShardCount is the number of private SPSC command shards per rank —
	// one per thread that calls RegisterThread; later registrants share
	// the overflow shard (default 16).
	ShardCount int
	// CmdBatchMax bounds how many commands the offload goroutine drains
	// per wakeup before a progress round (default 16).
	CmdBatchMax int
	// Transport selects the wire backend for an in-process cluster: nil
	// runs the default Loopback (direct in-process delivery, the
	// historical behavior); a socket mesh (transport.NewSocketMesh) moves
	// every payload through real Unix-domain sockets. The cluster takes
	// ownership: Close closes the mesh. Its Size must match the rank
	// count. Multi-process runs use NewWorkerCluster instead.
	Transport transport.Mesh
}

// Cluster is a set of real-time ranks. With NewCluster/NewClusterOpts all
// ranks live in this process; with NewWorkerCluster the cluster holds one
// local rank of a multi-process job and `ranks` has a single entry.
type Cluster struct {
	ranks    []*Rank
	size     int            // job size (== len(ranks) except in worker mode)
	mesh     transport.Mesh // in-process backend; nil in worker mode
	peerDown []atomic.Bool  // ranks considered dead (KillRank, send failures)
	mode     Mode
	batchMax int
	wdNs     atomic.Int64 // WaitErr deadline (wall-clock ns); 0 = no deadline
	statsOn  atomic.Bool  // latency-histogram collection gate
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// SetStatsEnabled toggles wall-clock latency-histogram collection on the
// offload path. Off (the default) the hot path pays one atomic load and
// never calls time.Now; on, every offloaded command records its queue-wait
// and service time. Safe to toggle concurrently with traffic.
func (c *Cluster) SetStatsEnabled(on bool) { c.statsOn.Store(on) }

// SetFlightRecorder does nothing.
//
// Deprecated: the flight recorder was removed; rt records no transitions,
// so there is nothing to switch off.
func (c *Cluster) SetFlightRecorder(bool) {}

// RankStats is a point-in-time snapshot of one rank's counters and, when
// stats collection was enabled, its wall-clock latency histograms (ns).
type RankStats struct {
	Sends, Recvs, Progress, WatchdogTrips int64
	QueueWait, Service                    obs.Hist
}

// Stats snapshots the rank's counters and histograms.
func (r *Rank) Stats() RankStats {
	return RankStats{
		Sends:         r.Sends.Load(),
		Recvs:         r.Recvs.Load(),
		Progress:      r.Progress.Load(),
		WatchdogTrips: r.WatchdogTrips.Load(),
		QueueWait:     r.qwaitH.Snapshot(),
		Service:       r.serviceH.Snapshot(),
	}
}

// statsPass reads every rank's counters and histograms once, in rank order.
func (c *Cluster) statsPass() RankStats {
	var s RankStats
	for _, r := range c.ranks {
		rs := r.Stats()
		s.Sends += rs.Sends
		s.Recvs += rs.Recvs
		s.Progress += rs.Progress
		s.WatchdogTrips += rs.WatchdogTrips
		s.QueueWait.Add(rs.QueueWait)
		s.Service.Add(rs.Service)
	}
	return s
}

// Stats aggregates every rank's snapshot (histograms merged) into a
// coherent point-in-time view: the per-rank counters are lock-free and a
// single pass can tear mid-burst (rank 0 read before its send, rank 1
// after the matching receive), so Stats re-reads until two consecutive
// passes agree — a seqlock with the data as its own version. Under
// sustained traffic the counters never sit still; after a bounded number
// of passes the latest (momentarily torn) snapshot is returned rather
// than spinning forever.
func (c *Cluster) Stats() RankStats {
	prev := c.statsPass()
	for i := 0; i < 8; i++ {
		cur := c.statsPass()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// SetWatchdog bounds every subsequent WaitErr by d of wall-clock time
// (0 disables the bound). Safe to call concurrently with waits.
func (c *Cluster) SetWatchdog(d time.Duration) { c.wdNs.Store(int64(d)) }

// NewCluster builds n ranks in the given mode with default Options.
// Offload mode spawns one offload goroutine per rank; call Close to stop
// and join them.
func NewCluster(n int, mode Mode) *Cluster { return NewClusterOpts(n, mode, Options{}) }

// NewClusterOpts is NewCluster with explicit submission-path tuning.
func NewClusterOpts(n int, mode Mode, o Options) *Cluster {
	mesh := o.Transport
	if mesh == nil {
		mesh = transport.NewLoopback(n)
	}
	if mesh.Size() != n {
		panic(fmt.Sprintf("rt: transport mesh size %d != rank count %d", mesh.Size(), n))
	}
	c := newCluster(n, mode, o)
	c.mesh = mesh
	for i := 0; i < n; i++ {
		c.addRank(i, mesh.Endpoint(i), o)
	}
	c.start()
	return c
}

// NewWorkerCluster builds this process's single rank of a multi-process
// job: ep is the rank's socket endpoint (transport.Listen, typically from
// transport.EnvConfig under a cmd/mpirun launch). Size() reports the full
// job size; Rank(i) is only valid for the local rank (see Local). Close
// closes the endpoint.
func NewWorkerCluster(ep transport.Endpoint, mode Mode, o Options) *Cluster {
	c := newCluster(ep.Size(), mode, o)
	c.addRank(ep.Rank(), ep, o)
	c.start()
	return c
}

// newCluster builds the rankless shell.
func newCluster(size int, mode Mode, o Options) *Cluster {
	batch := o.CmdBatchMax
	if batch <= 0 {
		batch = 16
	}
	return &Cluster{size: size, mode: mode, batchMax: batch, peerDown: make([]atomic.Bool, size)}
}

// addRank builds one local rank attached to ep and binds the delivery
// upcall.
func (c *Cluster) addRank(id int, ep transport.Endpoint, o Options) {
	shards := o.ShardCount
	if shards <= 0 {
		shards = 16
	}
	r := &Rank{
		id:         id,
		cluster:    c,
		mode:       c.mode,
		pool:       reqpool.New(1 << 12),
		slots:      make([]slotState, 1<<12),
		mu:         make(chan struct{}, 1),
		cq:         queue.NewSharded[cmd](shards, 1<<8, 1<<12),
		inbox:      queue.NewMPMC[message](1 << 12),
		posted:     make(matchQueues[pending]),
		unexpected: make(matchQueues[message]),
		bell:       make(chan struct{}, 1),
		ep:         ep,
	}
	ep.Bind(r.deliver)
	c.ranks = append(c.ranks, r)
}

// start spawns one offload goroutine per rank.
func (c *Cluster) start() {
	if c.mode != Offload {
		return
	}
	for _, r := range c.ranks {
		c.wg.Add(1)
		// Label each offload goroutine with its rank so real CPU profiles
		// (go tool pprof -tagfocus/-taghide) attribute samples to ranks
		// instead of one anonymous goroutine blur.
		go func(r *Rank) {
			labels := pprof.Labels("rt_rank", strconv.Itoa(r.id))
			pprof.Do(context.Background(), labels, func(context.Context) {
				r.offloadLoop()
			})
		}(r)
	}
}

// Rank returns rank i's handle: nil when i is not hosted by this process
// (worker mode holds only its own rank).
func (c *Cluster) Rank(i int) *Rank {
	if len(c.ranks) == c.size {
		return c.ranks[i]
	}
	for _, r := range c.ranks {
		if r.id == i {
			return r
		}
	}
	return nil
}

// Local returns the process-local rank — the only one in worker mode, rank
// 0 in an in-process cluster.
func (c *Cluster) Local() *Rank { return c.ranks[0] }

// KillRank simulates a process failure of rank i: the cluster marks it
// down (sends addressed to it complete locally and are discarded at the
// wire), its local offload goroutine — if it lives in this process —
// stops, and operations blocked on it surface ErrRankFailed from WaitErr
// once the watchdog deadline passes. Idempotent; safe to call concurrently
// with traffic. The dead rank's own outstanding handles are abandoned —
// a killed process has no one left to wait on them.
func (c *Cluster) KillRank(i int) {
	c.peerDown[i].Store(true)
	r := c.Rank(i)
	if r == nil || !r.failed.CompareAndSwap(false, true) {
		return
	}
	r.stop.Store(true)
	ring(r.bell) // wake whoever naps on the bell so it observes the stop
}

// Failed reports whether rank i is considered dead: killed by KillRank, or
// unreachable at the transport (a send to it returned a hard error).
func (c *Cluster) Failed(i int) bool { return c.peerDown[i].Load() }

// Size returns the number of ranks in the job (all of them, including the
// remote ones in worker mode).
func (c *Cluster) Size() int { return c.size }

// Close stops the offload goroutines and blocks until every one has
// exited, so tests can re-create clusters without leaking or racing the
// previous cluster's loops. The transport closes before the join: a socket
// backend's blocked reads and writes unwind when their fds close, so an
// offload goroutine stuck mid-Send (in-flight wire op) cannot deadlock the
// join or leak — the close-ordering contract the leak tests pin down.
// Idempotent: extra Closes return immediately.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for _, r := range c.ranks {
		r.stop.Store(true)
		ring(r.bell)
	}
	if c.mesh != nil {
		c.mesh.Close()
	} else {
		for _, r := range c.ranks {
			r.ep.Close()
		}
	}
	c.wg.Wait()
}

// Handle identifies an in-flight operation (a request-pool slot).
type Handle int

// Thread is a per-goroutine submission handle: its operations post into
// the goroutine's private SPSC command shard, so concurrent posters never
// contend on a shared cache line. Obtain one per goroutine with
// RegisterThread and do not share it — the shard is single-producer.
type Thread struct {
	r     *Rank
	shard int
}

// RegisterThread claims a private command shard for the calling goroutine.
// Once ShardCount shards are taken, later registrants transparently share
// the MPMC overflow shard (correct, just contended). In Direct mode the
// handle simply forwards to the rank.
func (r *Rank) RegisterThread() *Thread {
	return &Thread{r: r, shard: r.cq.Register()}
}

// Rank returns the rank this thread submits to.
func (th *Thread) Rank() *Rank { return th.r }

// Isend starts a nonblocking send through the thread's private shard.
func (th *Thread) Isend(buf []byte, dst, tag int) Handle {
	return th.r.isend(th.shard, buf, dst, tag)
}

// Irecv starts a nonblocking receive through the thread's private shard.
func (th *Thread) Irecv(buf []byte, src, tag int) Handle {
	return th.r.irecv(th.shard, buf, src, tag)
}

// Send is the blocking send (Isend + Wait).
func (th *Thread) Send(buf []byte, dst, tag int) { th.r.Wait(th.Isend(buf, dst, tag)) }

// Recv is the blocking receive; it returns the received byte count.
func (th *Thread) Recv(buf []byte, src, tag int) int { return th.r.Wait(th.Irecv(buf, src, tag)) }

// WaitErr forwards to the rank's WaitErr.
func (th *Thread) WaitErr(h Handle) (int, error) { return th.r.WaitErr(h) }

// spin is the offload agent's idle wait and the back-pressure wait of a
// full command ring, inbox or request pool: a few Gosched yields, then the
// caller parks or sleeps. The idle agent yields idleSpin times and parks
// on the rank's bell, which submitters and the delivery upcall ring
// (napAgent). Back-pressure, whose end nobody signals (a full queue
// draining, a Wait freeing a slot), yields spinHot times and then sleeps
// backoffSleep per round (pause). Waiters do not spin at all: a blocked
// Wait parks at once on its slot's wake channel, which the completion
// rings (see park).
//
// The idle budget is small because a Gosched spinner delays netpoll.
// Gosched puts the goroutine on the global run queue, and the scheduler
// runs queued goroutines before it polls the network, so while an agent
// spins, a socket's readiness waits until the spin ends (or sysmon's
// 10 ms poll); an idle P blocks in netpoll and sees it at once. A budget
// of 0 is worse again: the application posts the Irecv that follows its
// Isend a yield or two later, so an agent that naps at once pays a park
// and a ring on every hop. idleSpin comes from a sweep of the four rt_*
// workloads of benchmark/ on a 2-vCPU host: 3 s runs, medians of 4,
// msgs/s, and agent polls per message on the 8 B ping-pong (traced pass):
//
//	budget  unix_8b  unix_64k  flood_loopback  flood_unix  polls/msg
//	0        99 k    13.6 k    1.36 M          1.37 M       6.1
//	1       102 k    13.5 k    1.64 M          1.19 M       7.1
//	2       105 k    12.8 k    1.61 M          1.17 M       8.1
//	4       102 k    12.0 k    1.49 M          1.17 M      10.1
//	8        91 k    12.3 k    1.47 M          1.21 M      14.2
//	64       48 k    10.5 k    1.41 M          1.06 M      63.3
type spin struct{ n int }

const (
	idleSpin     = 2
	spinHot      = 64
	backoffSleep = time.Millisecond
)

// yield burns one hot round of a budget of rounds; false means the
// budget is spent and the caller should park.
func (s *spin) yield(budget int) bool {
	if s.n < budget {
		s.n++
		runtime.Gosched()
		return true
	}
	return false
}

// pause is one round of back-pressure wait: one of spinHot yields, or once
// they are spent a backoffSleep sleep.
func (s *spin) pause() {
	if !s.yield(spinHot) {
		time.Sleep(backoffSleep)
	}
}

func (s *spin) reset() { s.n = 0 }

// ring taps a doorbell: a non-blocking send on a 1-buffered channel, so
// producers never block and redundant taps coalesce.
func ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// lock/unlock implement the Direct-mode global lock.
func (r *Rank) lock()   { r.mu <- struct{}{} }
func (r *Rank) unlock() { <-r.mu }

// directPoll drives one waiter-side progress round under the global lock
// (Direct mode), counted as an engine poll.
func (r *Rank) directPoll() {
	r.Polls.Add(1)
	r.lock()
	r.drain()
	r.unlock()
}

// napAgent parks the idle agent on the bell. The queues are re-checked
// after napping is raised — the Dekker handshake with the submitters' and
// the delivery upcall's enqueue-then-check-napping — so a command or a
// delivery that races the nap is never slept through, and no timer is
// needed.
func (r *Rank) napAgent() {
	r.napping.Add(1)
	if r.cq.Len() == 0 && r.inbox.Empty() && !r.stop.Load() {
		<-r.bell
	}
	r.napping.Add(-1)
}

// Isend starts a nonblocking send of buf to dst with tag. The payload is
// copied (eager), so buf is immediately reusable; the returned handle
// completes when the transport has accepted the message. Unregistered
// callers post through the shared overflow shard — use RegisterThread for
// the contention-free path.
func (r *Rank) Isend(buf []byte, dst, tag int) Handle {
	return r.isend(queue.Overflow, buf, dst, tag)
}

func (r *Rank) isend(shard int, buf []byte, dst, tag int) Handle {
	slot := r.getSlot()
	r.slots[slot].peer.Store(int32(dst))
	r.Sends.Add(1)
	if r.mode == Offload {
		data := append([]byte(nil), buf...) // serialize into the command
		r.submit(shard, cmd{kind: cmdSend, slot: slot, peer: dst, tag: tag, buf: data})
		return Handle(slot)
	}
	r.lock()
	r.doSend(slot, dst, tag, append([]byte(nil), buf...))
	r.unlock()
	return Handle(slot)
}

// Irecv starts a nonblocking receive into buf from src with tag.
func (r *Rank) Irecv(buf []byte, src, tag int) Handle {
	return r.irecv(queue.Overflow, buf, src, tag)
}

func (r *Rank) irecv(shard int, buf []byte, src, tag int) Handle {
	slot := r.getSlot()
	r.slots[slot].peer.Store(int32(src))
	r.Recvs.Add(1)
	if r.mode == Offload {
		r.submit(shard, cmd{kind: cmdRecv, slot: slot, peer: src, tag: tag, buf: buf})
		return Handle(slot)
	}
	r.lock()
	r.doRecv(slot, src, tag, buf)
	r.unlock()
	return Handle(slot)
}

// submit posts c into the command queue through shard (Offload mode),
// stamping its enqueue time when stats are on, and wakes a napping agent.
func (r *Rank) submit(shard int, c cmd) {
	if r.cluster.statsOn.Load() {
		c.enqNs = time.Now().UnixNano()
	}
	var sp spin
	for !r.cq.TryEnqueue(shard, c) {
		sp.pause()
	}
	if r.napping.Load() > 0 {
		ring(r.bell)
	}
}

// Send is the blocking send.
func (r *Rank) Send(buf []byte, dst, tag int) { r.Wait(r.Isend(buf, dst, tag)) }

// Recv is the blocking receive; it returns the received byte count.
func (r *Rank) Recv(buf []byte, src, tag int) int { return r.Wait(r.Irecv(buf, src, tag)) }

// Wait blocks until the operation completes, releasing the handle; for
// receives it returns the received byte count. A negative count reports a
// failed receive (truncation — see WaitErr, which decodes it to an error).
func (r *Rank) Wait(h Handle) int {
	n, _ := r.wait(int(h), 0)
	return n
}

// WaitErr is Wait bounded by the cluster's watchdog deadline: when the
// operation is still incomplete after SetWatchdog's duration it returns
// ErrTimeout instead of blocking forever (a hung peer, a never-posted
// receive). It also decodes the slot's error sentinel: a truncated receive
// returns ErrTruncate. The timed-out request stays live and its pool slot
// is intentionally leaked — the engine may still complete it later, and
// recycling the slot under an in-flight operation would corrupt the pool
// (MPI has no safe MPI_Request_free for active requests either).
func (r *Rank) WaitErr(h Handle) (int, error) {
	n, err := r.wait(int(h), time.Duration(r.cluster.wdNs.Load()))
	switch {
	case err != nil:
		return 0, err
	case n < 0:
		return 0, ErrTruncate
	}
	return n, nil
}

// wait is the one wait loop behind Wait and WaitErr. It releases the slot
// and returns its raw byte count; d > 0 bounds it by one wall-clock timer
// and, once that fires, leaves the slot live and returns the watchdog's
// error.
func (r *Rank) wait(slot int, d time.Duration) (int, error) {
	s := &r.slots[slot]
	if !r.pool.Done(slot) {
		if err := r.block(slot, s, d); err != nil {
			return 0, err
		}
	}
	n := int(s.count.Load())
	r.pool.Put(slot)
	return n, nil
}

// block returns once slot is done, or with the watchdog's error once d > 0
// has passed. It does not spin: the waiter parks at once on the slot's
// wake channel, and the completer (complete) rings exactly that channel.
//
// In Direct mode there is no agent, so the waiter drains the inbox itself
// under the lock before every park, and parks on the rank's bell as well,
// which the delivery upcall rings while napping > 0. Whoever takes the
// bell's token drains on its next pass, so the delivery it announced is
// landed even when it completes some other waiter's slot.
func (r *Rank) block(slot int, s *slotState, d time.Duration) error {
	var expired <-chan time.Time
	if d > 0 {
		wd := time.NewTimer(d)
		defer wd.Stop()
		expired = wd.C
	}
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
	}
	var bell chan struct{} // nil, so never selected, in Offload mode
	if r.mode == Direct {
		bell = r.bell
	}
	for {
		if bell != nil {
			// The waiter drives progress itself (and contends with every
			// other thread of this rank for the lock).
			r.directPoll()
		}
		if r.pool.Done(slot) {
			return nil
		}
		if !r.park(slot, s, bell, expired) {
			return r.expire(slot, d)
		}
	}
}

// park blocks until the slot's wake channel or the bell (Direct mode) is
// rung, and reports false if the watchdog fired first. Each wakeup source
// is a Dekker handshake over seq-cst atomics: the waiter raises parked
// (and napping) and then re-checks the done flag (and the inbox); the
// completer sets the done flag and then loads parked, the delivery upcall
// enqueues and then loads napping. One side always sees the other, so
// either the waiter does not block or it is rung: no wakeup is lost, and
// no timer backs the handshake up. A token left by a completer that raced
// an unparking waiter costs the slot's next waiter one spurious pass.
func (r *Rank) park(slot int, s *slotState, bell chan struct{}, expired <-chan time.Time) bool {
	if bell != nil {
		r.napping.Add(1)
		defer r.napping.Add(-1)
	}
	s.parked.Store(true)
	defer s.parked.Store(false)
	if r.pool.Done(slot) || (bell != nil && !r.inbox.Empty()) {
		return true
	}
	select {
	case <-s.wake:
	case <-bell:
	case <-expired:
		return r.pool.Done(slot) // completed as the deadline passed
	}
	return true
}

// complete marks slot done and, when its waiter is parked, rings exactly
// that waiter: the completer's half of park's handshake.
func (r *Rank) complete(slot int) {
	r.pool.SetDone(slot)
	if s := &r.slots[slot]; s.parked.Load() {
		ring(s.wake)
	}
}

// expire records a watchdog trip on slot and names its cause: the peer is
// dead (ErrRankFailed) or merely late (ErrTimeout).
func (r *Rank) expire(slot int, d time.Duration) error {
	r.WatchdogTrips.Add(1)
	p := int(r.slots[slot].peer.Load())
	if p >= 0 && p < r.cluster.Size() && r.cluster.Failed(p) {
		return fmt.Errorf("%w (rank %d slot %d peer %d after %v)", ErrRankFailed, r.id, slot, p, d)
	}
	return fmt.Errorf("%w (rank %d slot %d after %v)", ErrTimeout, r.id, slot, d)
}

// getSlot allocates a request-pool slot with its byte count cleared: slots
// recycle, and a send completion never writes the count, so a stale value
// from the slot's previous receive would otherwise leak into the next
// operation's Wait. When every slot is live it waits on back-pressure
// (pause) until some Wait frees one.
func (r *Rank) getSlot() int {
	var sp spin
	for {
		if s := r.pool.Get(); s != reqpool.None {
			r.slots[s].count.Store(0)
			return s
		}
		sp.pause()
	}
}

// frame wraps a payload for dst as a data frame stamped with this rank's
// next flow id.
func (r *Rank) frame(dst, tag int, data []byte) transport.Frame {
	return transport.Frame{
		Kind: transport.KindData,
		Src:  r.id,
		Dst:  dst,
		Tag:  tag,
		Flow: obs.FlowID(r.id, r.flowSeq.Add(1)),
		Data: data,
	}
}

// doSend is Direct mode's send, run under the lock: one frame, one
// transport call. A send to a dead rank completes locally — the eager
// payload was accepted by the transport — but goes nowhere (sending into a
// dead rank's NIC would wedge the sender's engine once nothing drains it);
// a transport hard error marks the peer down the same way, so later
// operations fail fast instead of re-timing-out one by one. The offload
// agent applies the same rules per destination in flush.
func (r *Rank) doSend(slot, dst, tag int, data []byte) {
	if !r.cluster.peerDown[dst].Load() {
		if err := r.ep.Send(r.frame(dst, tag, data)); err != nil {
			r.cluster.peerDown[dst].Store(true)
		}
	}
	r.complete(slot)
}

// staged is a send the offload agent has drained but not yet written.
type staged struct {
	f       transport.Frame
	slot    int
	startNs int64 // dequeue stamp for the service histogram; 0 = stats off
}

// outbox is the offload agent's send staging, reused across drain batches.
type outbox struct {
	sends  []staged
	frames []transport.Frame // flush's scratch: one destination's frames
}

// serve runs one drain batch (engine context): receives are matched at
// once, sends are staged in command order and flushed after the batch.
func (r *Rank) serve(batch []cmd, ob *outbox) {
	for i := range batch {
		c := &batch[i]
		var startNs int64
		if c.enqNs != 0 {
			startNs = time.Now().UnixNano()
			r.qwaitH.Observe(startNs - c.enqNs)
		}
		switch c.kind {
		case cmdSend:
			ob.sends = append(ob.sends, staged{f: r.frame(c.peer, c.tag, c.buf), slot: c.slot, startNs: startNs})
		case cmdRecv:
			r.doRecv(c.slot, c.peer, c.tag, c.buf)
			if startNs != 0 {
				r.serviceH.Observe(time.Now().UnixNano() - startNs)
			}
		}
		c.buf = nil // release the payload reference
	}
	if len(ob.sends) > 0 {
		r.flush(ob)
	}
}

// flush writes the staged sends: each destination's frames, in command
// order, go to the transport in one call, and only then do their handles
// complete — Isend's "accepted by the transport" contract. Every payload
// reference is dropped before it returns.
func (r *Rank) flush(ob *outbox) {
	out := ob.sends
	for i := range out {
		dst := out[i].f.Dst
		if dst < 0 {
			continue // flushed with an earlier destination's frames
		}
		frames := ob.frames[:0]
		for j := i; j < len(out); j++ {
			if out[j].f.Dst == dst {
				frames = append(frames, out[j].f)
			}
		}
		if !r.cluster.peerDown[dst].Load() {
			if err := transport.SendBatch(r.ep, frames); err != nil {
				r.cluster.peerDown[dst].Store(true)
			}
		}
		clear(frames)
		ob.frames = frames[:0]
		for j := i; j < len(out); j++ {
			if s := &out[j]; s.f.Dst == dst {
				r.complete(s.slot)
				if s.startNs != 0 {
					r.serviceH.Observe(time.Now().UnixNano() - s.startNs)
				}
				s.f = transport.Frame{Dst: -1}
			}
		}
	}
	ob.sends = out[:0]
}

// deliver is the transport upcall: it runs on the wire's delivery
// goroutine — the sender's own, for Loopback; a socket-reader, for real
// backends — and enqueues the frame into the rank's inbox, then rings the
// bell if anyone who drains the inbox is parked on it. A full inbox
// applies backpressure by pausing, bounded by rank death and cluster
// shutdown so a blocked delivery can never outlive Close.
func (r *Rank) deliver(f transport.Frame) {
	if f.Kind != transport.KindData || r.failed.Load() {
		return
	}
	m := message{src: f.Src, tag: f.Tag, data: f.Data, pooled: f.Pooled()}
	var sp spin
	for !r.inbox.TryEnqueue(m) {
		if r.failed.Load() || r.stop.Load() {
			return
		}
		sp.pause()
	}
	if r.napping.Load() > 0 {
		ring(r.bell)
	}
}

// doRecv runs in engine context.
func (r *Rank) doRecv(slot, src, tag int, buf []byte) {
	k := matchKey{src, tag}
	if m, ok := r.unexpected.pop(k); ok {
		r.landMessage(slot, buf, m)
		return
	}
	r.posted.push(k, pending{slot: slot, buf: buf})
}

// landMessage completes a receive. A message longer than the posted buffer
// fails the request with the truncation sentinel (payload dropped, like
// MPI_ERR_TRUNCATE) instead of crashing the whole process: the waiter sees
// a negative count and WaitErr turns it into ErrTruncate. Either way the
// payload is dead afterwards, so a pooled one goes back to the transport.
func (r *Rank) landMessage(slot int, buf []byte, m message) {
	n := int32(truncSentinel)
	if len(m.data) <= len(buf) {
		n = int32(copy(buf, m.data))
	}
	if m.pooled {
		transport.Recycle(m.data)
	}
	r.slots[slot].count.Store(n)
	r.complete(slot)
}

// drain processes every delivered message (engine context).
func (r *Rank) drain() {
	for {
		m, ok := r.inbox.TryDequeue()
		if !ok {
			return
		}
		r.Progress.Add(1)
		k := matchKey{m.src, m.tag}
		if p, ok := r.posted.pop(k); ok {
			r.landMessage(p.slot, p.buf, m)
			continue
		}
		r.unexpected.push(k, m)
	}
}

// offloadLoop is the rank's dedicated communication goroutine (§3): it
// alone touches the matching engine — no locks anywhere. Each wakeup drains
// up to batchMax commands, walking only the occupied submission shards,
// flushes the batch's sends one transport call per destination, then
// lands whatever the transport delivered.
func (r *Rank) offloadLoop() {
	defer r.cluster.wg.Done()
	batch := make([]cmd, r.cluster.batchMax)
	ob := &outbox{sends: make([]staged, 0, r.cluster.batchMax)}
	var idle spin
	for !r.stop.Load() {
		r.Polls.Add(1)
		n := r.cq.DequeueBatch(batch)
		if n > 0 {
			r.serve(batch[:n], ob)
		}
		worked := n > 0
		if !r.inbox.Empty() {
			r.drain()
			worked = true
		}
		if worked {
			idle.reset()
		} else if !idle.yield(idleSpin) {
			r.napAgent()
		}
	}
}
