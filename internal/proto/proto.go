// Package proto implements the per-rank MPI protocol engine of the
// simulated cluster: tag/source/communicator matching with posted and
// unexpected queues, the eager and rendezvous wire protocols, and the
// progress engine.
//
// The engine reproduces the software dynamics the paper's evaluation rests
// on (§2, §4.1):
//
//   - Eager sends (≤ EagerThreshold bytes) copy the payload into an
//     internal buffer inside MPI_Isend — post time grows with message size.
//   - Rendezvous sends only emit an RTS control message; the *receiver's*
//     progress engine must process the RTS and answer CTS, and the
//     *sender's* progress engine must process the CTS before any data
//     moves. Progress only happens when some thread drives the engine
//     (blocking calls, Iprobe, or a dedicated progress/offload
//     thread), so without asynchronous progress the whole transfer is
//     deferred to MPI_Wait.
//   - Under MPI_THREAD_MULTIPLE every library call must hold a global lock
//     (EnterLock/ExitLock); concurrent callers serialize FIFO and pay a
//     contention penalty per waiter, reproducing the poor multithreaded
//     scaling of typical MPI implementations (Fig 6).
//
// Payloads carry real bytes between rank address spaces.
package proto

import (
	"fmt"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/vclock"
)

// Wildcards for Irecv/Iprobe.
const (
	AnySource = -1
	AnyTag    = -1
)

const ctlBytes = 64 // wire size of RTS/CTS control messages

// Status describes a completed (or probed) receive.
type Status struct {
	Source int
	Tag    int
	Count  int // bytes
}

// Req is any completable communication request: a point-to-point Op or a
// collective schedule.
type Req interface {
	Done() bool
}

// Op is a point-to-point communication request.
type Op struct {
	Eng      *Engine
	IsSend   bool
	Peer     int // dst for sends, src (or AnySource) for recvs
	Tag      int
	Comm     int
	Buf      []byte
	Bytes    int // wire size; len(Buf) for ordinary ops, larger for phantom
	complete bool
	Stat     Status
	// Err is non-nil when the watchdog failed the request (ErrTimeout /
	// ErrRankFailed wrapped with context) instead of letting it hang.
	Err error
	// Flow is the causal flow id of the message this op carries: sends are
	// stamped at post; receives inherit the matching sender's flow when the
	// message lands. 0 until then (see obs.Event.Flow).
	Flow     int64
	postedAt int64   // virtual ns at post (rendezvous handshake RTT)
	seq      uint64  // posting order (receive matching)
	matched  bool    // receive already matched (tombstone in the queues)
	queued   bool    // receive entered the posted queues
	onDone   func()  // completion callback (collective schedules)
	expires  float64 // watchdog deadline (virtual ns); 0 = unwatched
}

// OnDone registers a completion callback, invoking it immediately if the
// operation has already completed. Collective schedules use it to track
// outstanding sub-operations in O(1) instead of polling.
func (o *Op) OnDone(fn func()) {
	if o.complete {
		fn()
		return
	}
	if o.onDone != nil {
		prev := o.onDone
		o.onDone = func() { prev(); fn() }
		return
	}
	o.onDone = fn
}

// Done reports whether the operation has completed. Completion is set by
// the progress engine (or, for rendezvous senders, by the NIC completion
// event); callers observe it via Wait-style polling.
func (o *Op) Done() bool { return o.complete }

// Progressor is a multi-step operation (nonblocking collective schedule)
// advanced by the owning rank's progress engine. Step returns true when the
// operation has fully completed and should be deregistered.
type Progressor interface {
	Step(t *vclock.Task) bool
}

// Notifier is implemented by requests that can invoke a callback at
// completion (point-to-point Ops and collective schedules). Wait loops use
// it to park cheaply once a dedicated progress agent is known to be
// driving the engine.
type Notifier interface {
	OnDone(fn func())
}

// Stats counts protocol events for tests and diagnostics.
type Stats struct {
	EagerSends    int
	RdvSends      int
	Recvs         int
	UnexpectedHit int // receives satisfied from the unexpected queue
	PostedHit     int // arrivals matched against posted receives
	ProgressCalls int
	WatchdogTrips int // requests failed by the watchdog
}

// wire payload types. Every protocol message carries the (src rank, flow
// id) stamp of the message flow it belongs to — flow, packed as
// (src+1)<<32|seq, see obs.Event.Flow — plus the virtual time it entered
// the wire, so the receiving NIC can attribute transit time and the
// exporter can draw cross-rank send→recv arrows.
type eagerMsg struct {
	op     *Op // sender's op (already complete; kept for diagnostics)
	tag    int
	comm   int
	bytes  int // wire size (>= len(data) for phantom payloads)
	data   []byte
	flow   int64
	sentAt int64
}

type rtsMsg struct {
	op     *Op // sender's op, to be CTS'd back
	tag    int
	comm   int
	bytes  int
	bwDiv  float64
	flow   int64
	sentAt int64
}

type ctsMsg struct {
	sendOp *Op
	recvOp *Op
	bwDiv  float64
	sentAt int64
}

type rdvData struct {
	sendOp *Op
	recvOp *Op
	sentAt int64
}

// uxEntry is an arrived-but-unmatched message (eager payload or RTS).
type uxEntry struct {
	src      int
	tag      int
	comm     int
	bytes    int
	data     []byte // eager payload; nil for an RTS
	sendOp   *Op    // RTS only
	bwDiv    float64
	flow     int64
	seq      uint64
	consumed bool
}

// matchKey indexes the posted and unexpected queues for the common case of
// fully-specified matching (no wildcards) — linear list scans are a known
// MPI matching bottleneck at scale, and hashing them away here keeps the
// simulator itself O(1) per message.
type matchKey struct{ comm, tag, src int }

// Engine is the MPI protocol engine of one rank.
type Engine struct {
	K    *vclock.Kernel
	F    *fabric.Fabric
	P    *model.Profile
	Rank int

	// Lock is the implementation's global lock, held for the duration of
	// every library call when the caller uses EnterLock/ExitLock
	// (MPI_THREAD_MULTIPLE mode). Funneled callers and the offload thread
	// never touch it.
	Lock *vclock.Resource

	// HasAgent is set when a dedicated progress agent (comm-self or
	// core-spec thread) drives this engine: long blocking waits may then
	// park on completion notifications instead of polling per arrival.
	HasAgent bool

	// Obs is this rank's observability recorder. It may be nil (or
	// disabled): every hook self-gates at the cost of a nil check plus one
	// atomic load.
	Obs *obs.Recorder
	// obsTID is the thread class of the most recent classified entry into
	// the engine (Progress, IsendN, IrecvN); handle() events inherit it,
	// since packets are processed on whichever thread drives progress.
	obsTID uint8
	// flowSeq numbers this rank's outgoing message flows; flow ids are
	// obs.FlowID(Rank, flowSeq) so they are globally unique and never 0.
	flowSeq uint64

	activity *vclock.Event
	actSeq   uint64
	inbox    []*fabric.Packet

	// Posted receives: concrete (comm,tag,src) triples live in hashed
	// FIFOs; receives with a wildcard live in a post-ordered list. Both
	// carry sequence numbers so an arrival matches the earliest-posted
	// candidate, exactly as MPI requires.
	postSeq uint64
	postedX map[matchKey][]*Op
	postedW []*Op
	postedN int

	// Unexpected arrivals: hashed per concrete key, plus an arrival-order
	// list for wildcard receives and probes. Entries are tombstoned when
	// consumed and the lists compacted lazily.
	uxSeq uint64
	uxX   map[matchKey][]*uxEntry
	uxAll []*uxEntry
	uxN   int

	progressors []Progressor
	stepping    bool
	stats       Stats

	// Watchdog: requests in flight longer than Deadline ns are failed with
	// ErrTimeout/ErrRankFailed instead of hanging (0 disables). Set before
	// traffic flows.
	Deadline   float64
	watch      []*Op
	watchArmed bool
}

// NewEngine creates the engine for one rank and binds it to the fabric.
func NewEngine(k *vclock.Kernel, f *fabric.Fabric, p *model.Profile, rank int) *Engine {
	e := &Engine{
		K:        k,
		F:        f,
		P:        p,
		Rank:     rank,
		Lock:     vclock.NewResource(fmt.Sprintf("mpilock.%d", rank), 1),
		activity: vclock.NewEvent(fmt.Sprintf("mpiact.%d", rank)),
		postedX:  make(map[matchKey][]*Op),
		uxX:      make(map[matchKey][]*uxEntry),
	}
	f.Bind(rank, e.deliver)
	return e
}

// Stats returns the engine's protocol counters.
func (e *Engine) Stats() Stats { return e.stats }

// newFlow allocates the next causal flow id originating at this rank.
func (e *Engine) newFlow() int64 {
	e.flowSeq++
	return obs.FlowID(e.Rank, e.flowSeq)
}

// flowOfPayload extracts the flow stamp (and wire-entry time) from a
// protocol payload; (0, 0) for unstamped payloads.
func flowOfPayload(p any) (flow, sentAt int64) {
	switch m := p.(type) {
	case *eagerMsg:
		return m.flow, m.sentAt
	case *rtsMsg:
		return m.flow, m.sentAt
	case *ctsMsg:
		return m.sendOp.Flow, m.sentAt
	case rdvData:
		return m.sendOp.Flow, m.sentAt
	}
	return 0, 0
}

// noteDelivered records a flow-stamped packet reaching this rank's NIC,
// attributing its wire transit time (delivery-callback context).
func (e *Engine) noteDelivered(pkt *fabric.Packet) {
	if !e.Obs.Enabled() {
		return
	}
	flow, sentAt := flowOfPayload(pkt.Payload)
	if flow == 0 {
		return
	}
	now := e.K.Now()
	e.Obs.Delivered(now, pkt.Bytes, pkt.Src, flow, now-sentAt)
}

// deliver runs in NIC (timer-callback) context: enqueue and kick waiters.
// Rendezvous data is special-cased: the RDMA write lands in the user buffer
// and the *sender* learns of completion from its own NIC without any
// receiver software involvement; the receiver still needs a progress call
// to notice its own completion.
func (e *Engine) deliver(pkt *fabric.Packet) {
	if d, ok := pkt.Payload.(rdvData); ok {
		if d.recvOp.Err == nil {
			copy(d.recvOp.Buf, d.sendOp.Buf)
		}
		// The sender learns of the transfer's completion from its own NIC.
		if se := d.sendOp.Eng; se.Obs.Enabled() {
			se.Obs.RdvDone(se.K.Now(), obs.TNIC, pkt.Bytes, pkt.Dst, d.sendOp.Flow)
		}
		d.sendOp.Eng.completeOp(d.sendOp, Status{})
	}
	e.noteDelivered(pkt)
	e.inbox = append(e.inbox, pkt)
	e.bump()
}

// bump wakes everything waiting for engine activity.
func (e *Engine) bump() {
	e.actSeq++
	e.activity.Broadcast(e.K)
}

// Bump signals engine activity from outside the engine (collective
// schedules completing, offload doorbells).
func (e *Engine) Bump() { e.bump() }

// Seq returns the activity sequence number; use with AwaitChange to build
// race-free wait loops.
func (e *Engine) Seq() uint64 { return e.actSeq }

// AwaitChange blocks until engine activity has advanced past seq.
func (e *Engine) AwaitChange(t *vclock.Task, seq uint64) {
	for e.actSeq == seq {
		t.Wait(e.activity)
	}
}

func (e *Engine) completeOp(o *Op, st Status) {
	if o.complete {
		return
	}
	o.complete = true
	o.Stat = st
	if o.onDone != nil {
		fn := o.onDone
		o.onDone = nil
		fn()
	}
	e.bump()
}

// EnterLock acquires the global THREAD_MULTIPLE lock, charging the
// uncontended acquisition cost plus a cache-bounce penalty per waiter
// already in line.
func (e *Engine) EnterLock(t *vclock.Task) {
	waiters := e.Lock.QueueLen()
	if e.Lock.InUse() > 0 {
		waiters++
	}
	t.Acquire(e.Lock)
	t.SleepF(e.P.MTLockAcquire + e.P.MTLockBounce*float64(waiters))
}

// ExitLock releases the global lock.
func (e *Engine) ExitLock(t *vclock.Task) { t.Release(e.Lock) }

// Isend posts a nonblocking send at full link bandwidth.
func (e *Engine) Isend(t *vclock.Task, buf []byte, dst, tag, comm int) *Op {
	return e.IsendBW(t, buf, dst, tag, comm, 1)
}

// IsendBW posts a nonblocking send whose wire transfer runs at LinkBW/bwDiv
// (collectives pass the bisection-congestion divisor).
func (e *Engine) IsendBW(t *vclock.Task, buf []byte, dst, tag, comm int, bwDiv float64) *Op {
	return e.IsendN(t, buf, len(buf), dst, tag, comm, bwDiv)
}

// IsendN posts a nonblocking send with an explicit wire size n >= len(buf).
// Workload models use n > len(buf) ("phantom" payloads) to exercise the
// full protocol and network timing of huge messages without allocating
// them; only len(buf) real bytes are carried.
func (e *Engine) IsendN(t *vclock.Task, buf []byte, n, dst, tag, comm int, bwDiv float64) *Op {
	if e.Obs.Enabled() {
		e.obsTID = obs.TaskClass(t.Name)
	}
	op, cost := e.IsendNCost(buf, n, dst, tag, comm, bwDiv)
	t.SleepF(cost)
	return op
}

// IsendNCost is IsendN without charging time: it returns the software cost
// for the caller to charge in bulk. Collective schedules that post
// hundreds of operations per round use it to avoid one scheduler handoff
// per operation.
func (e *Engine) IsendNCost(buf []byte, n, dst, tag, comm int, bwDiv float64) (*Op, float64) {
	if n < len(buf) {
		panic("proto: wire size smaller than payload")
	}
	op := &Op{Eng: e, IsSend: true, Peer: dst, Tag: tag, Comm: comm, Buf: buf, Bytes: n}
	op.Flow = e.newFlow()
	now := e.K.Now()
	op.postedAt = now
	if e.P.Eager(n) {
		// Eager: copy into an internal buffer inside the call; the send
		// buffer is immediately reusable, so the op completes at post.
		e.stats.EagerSends++
		if e.Obs.Enabled() {
			e.Obs.Issued(now, e.obsTID, obs.EvIssueEager, n, dst, op.Flow)
		}
		data := make([]byte, len(buf))
		copy(data, buf)
		e.F.Send(e.Rank, dst, n, bwDiv, &eagerMsg{op: op, tag: tag, comm: comm, bytes: n, data: data,
			flow: op.Flow, sentAt: now})
		e.completeOp(op, Status{})
		return op, e.P.CallOverhead + e.P.CopyTime(n)
	}
	// Rendezvous: emit RTS only; data moves after the CTS round trip.
	e.stats.RdvSends++
	if e.Obs.Enabled() {
		e.Obs.Issued(now, e.obsTID, obs.EvIssueRdv, n, dst, op.Flow)
	}
	e.F.Send(e.Rank, dst, ctlBytes, 1, &rtsMsg{op: op, tag: tag, comm: comm, bytes: n, bwDiv: bwDiv,
		flow: op.Flow, sentAt: now})
	e.watchOp(op)
	return op, e.P.CallOverhead + e.P.RTSCost
}

// Irecv posts a nonblocking receive. src may be AnySource, tag AnyTag.
func (e *Engine) Irecv(t *vclock.Task, buf []byte, src, tag, comm int) *Op {
	return e.IrecvN(t, buf, len(buf), src, tag, comm)
}

// IrecvN posts a nonblocking receive with declared capacity n >= len(buf)
// (the phantom counterpart of IsendN).
func (e *Engine) IrecvN(t *vclock.Task, buf []byte, n, src, tag, comm int) *Op {
	if e.Obs.Enabled() {
		e.obsTID = obs.TaskClass(t.Name)
	}
	op, cost := e.IrecvNCost(buf, n, src, tag, comm)
	t.SleepF(cost)
	return op
}

// IrecvNCost is IrecvN without charging time (see IsendNCost).
func (e *Engine) IrecvNCost(buf []byte, n, src, tag, comm int) (*Op, float64) {
	if n < len(buf) {
		panic("proto: declared capacity smaller than buffer")
	}
	op := &Op{Eng: e, Peer: src, Tag: tag, Comm: comm, Buf: buf, Bytes: n}
	e.stats.Recvs++
	if e.Obs.Enabled() {
		e.Obs.Issued(e.K.Now(), e.obsTID, obs.EvIssueRecv, n, src, 0)
	}
	cost := e.P.CallOverhead

	// Try the unexpected queue first.
	ux, c := e.takeUnexpected(src, tag, comm)
	cost += c
	if ux != nil {
		e.stats.UnexpectedHit++
		if ux.sendOp == nil {
			// Eager payload already here: copy out and complete.
			copyChecked(op, ux.data, ux.bytes, ux.src)
			op.Flow = ux.flow
			if e.Obs.Enabled() {
				e.Obs.EagerLanded(e.K.Now(), e.obsTID, ux.bytes, ux.src, ux.flow)
			}
			e.completeOp(op, Status{Source: ux.src, Tag: ux.tag, Count: ux.bytes})
			return op, cost + e.P.CopyTime(ux.bytes)
		}
		// RTS waiting: answer CTS; data will arrive asynchronously.
		op.Flow = ux.flow
		e.F.Send(e.Rank, ux.src, ctlBytes, 1, &ctsMsg{sendOp: ux.sendOp, recvOp: op, bwDiv: ux.bwDiv,
			sentAt: e.K.Now()})
		if e.Obs.Enabled() {
			e.Obs.CtsAnswered(e.K.Now(), e.obsTID, ux.bytes, ux.src, ux.flow)
		}
		e.watchOp(op)
		return op, cost + e.P.RTSCost
	}
	e.postRecv(op)
	e.watchOp(op)
	return op, cost
}

// postRecv enqueues a receive for future arrivals.
func (e *Engine) postRecv(op *Op) {
	e.postSeq++
	op.seq = e.postSeq
	op.queued = true
	e.postedN++
	if op.Peer == AnySource || op.Tag == AnyTag {
		e.postedW = append(e.postedW, op)
		return
	}
	k := matchKey{op.Comm, op.Tag, op.Peer}
	e.postedX[k] = append(e.postedX[k], op)
}

// takeUnexpected removes and returns the earliest matching unexpected
// arrival, with the matching cost.
func (e *Engine) takeUnexpected(src, tag, comm int) (*uxEntry, float64) {
	cost := e.P.MatchCost
	if src != AnySource && tag != AnyTag {
		k := matchKey{comm, tag, src}
		q := e.uxX[k]
		for len(q) > 0 && q[0].consumed {
			q = q[1:]
		}
		if len(q) == 0 {
			delete(e.uxX, k)
			return nil, cost
		}
		ux := q[0]
		if len(q) == 1 {
			delete(e.uxX, k)
		} else {
			e.uxX[k] = q[1:]
		}
		e.consumeUx(ux)
		return ux, cost
	}
	// Wildcard receive: earliest arrival wins, in arrival order.
	for _, ux := range e.uxAll {
		if ux.consumed {
			continue
		}
		cost += e.P.MatchCost
		if recvMatches(src, tag, comm, ux.src, ux.tag, ux.comm) {
			e.consumeUx(ux)
			return ux, cost
		}
	}
	return nil, cost
}

func (e *Engine) consumeUx(ux *uxEntry) {
	ux.consumed = true
	e.uxN--
	if len(e.uxAll) > 64 && len(e.uxAll) > 2*e.uxN {
		keep := e.uxAll[:0]
		for _, u := range e.uxAll {
			if !u.consumed {
				keep = append(keep, u)
			}
		}
		e.uxAll = keep
	}
}

// addUnexpected records an arrival no posted receive matched.
func (e *Engine) addUnexpected(ux *uxEntry) {
	e.uxSeq++
	ux.seq = e.uxSeq
	e.uxN++
	e.uxAll = append(e.uxAll, ux)
	k := matchKey{ux.comm, ux.tag, ux.src}
	e.uxX[k] = append(e.uxX[k], ux)
}

// recvMatches applies MPI matching rules: wildcards live on the receive
// side only.
func recvMatches(rsrc, rtag, rcomm, msrc, mtag, mcomm int) bool {
	if rcomm != mcomm {
		return false
	}
	if rsrc != AnySource && rsrc != msrc {
		return false
	}
	if rtag != AnyTag && rtag != mtag {
		return false
	}
	return true
}

// copyChecked lands an eager payload in a posted receive, enforcing MPI's
// no-truncation rule on the declared sizes.
func copyChecked(op *Op, data []byte, wire, from int) {
	if wire > op.Bytes {
		panic(fmt.Sprintf("proto: message truncation: %d bytes into %d-byte buffer (src rank %d -> dst rank %d)", wire, op.Bytes, from, op.Eng.Rank))
	}
	copy(op.Buf, data)
}

// Progress drains the inbox (matching arrivals, answering rendezvous
// control messages, landing eager payloads) and steps active collective
// schedules. The caller is charged the software cost of everything done.
func (e *Engine) Progress(t *vclock.Task) {
	e.stats.ProgressCalls++
	if e.Obs.Enabled() {
		e.obsTID = obs.TaskClass(t.Name)
		e.Obs.Progressed(e.obsTID)
	}
	cost := e.P.ProgressQuantum
	for len(e.inbox) > 0 {
		pkt := e.inbox[0]
		e.inbox = e.inbox[1:]
		cost += e.handle(pkt)
	}
	// Step collective schedules; completed ones deregister. Steps may
	// sleep (yield) and may register new progressors, so work on a
	// snapshot and guard against re-entry from another thread of this
	// rank that calls Progress while a step is mid-flight.
	if !e.stepping {
		e.stepping = true
		ps := e.progressors
		e.progressors = nil
		var keep []Progressor
		for _, p := range ps {
			if !p.Step(t) {
				keep = append(keep, p)
			}
		}
		e.progressors = append(keep, e.progressors...)
		e.stepping = false
	}
	t.SleepF(cost)
}

// handle processes one arrived packet and returns its software cost.
func (e *Engine) handle(pkt *fabric.Packet) float64 {
	switch m := pkt.Payload.(type) {
	case *eagerMsg:
		op, cost := e.matchPosted(pkt.Src, m.tag, m.comm)
		if op != nil {
			cost += e.P.CopyTime(m.bytes)
			copyChecked(op, m.data, m.bytes, pkt.Src)
			op.Flow = m.flow
			if e.Obs.Enabled() {
				e.Obs.EagerLanded(e.K.Now(), e.obsTID, m.bytes, pkt.Src, m.flow)
			}
			e.completeOp(op, Status{Source: pkt.Src, Tag: m.tag, Count: m.bytes})
			return cost
		}
		e.addUnexpected(&uxEntry{
			src: pkt.Src, tag: m.tag, comm: m.comm, bytes: m.bytes, data: m.data, flow: m.flow,
		})
		return cost
	case *rtsMsg:
		op, cost := e.matchPosted(pkt.Src, m.tag, m.comm)
		if op != nil {
			cost += e.P.RTSCost
			op.Flow = m.flow
			e.F.Send(e.Rank, pkt.Src, ctlBytes, 1, &ctsMsg{sendOp: m.op, recvOp: op, bwDiv: m.bwDiv,
				sentAt: e.K.Now()})
			if e.Obs.Enabled() {
				e.Obs.CtsAnswered(e.K.Now(), e.obsTID, m.bytes, pkt.Src, m.flow)
			}
			return cost
		}
		e.addUnexpected(&uxEntry{
			src: pkt.Src, tag: m.tag, comm: m.comm, bytes: m.bytes, sendOp: m.op, bwDiv: m.bwDiv,
			flow: m.flow,
		})
		return cost
	case *ctsMsg:
		// We are the sender: the receiver's buffer is ready, start the
		// RDMA transfer. The NIC completes both sides (see deliver). A
		// send the watchdog already failed is not restarted.
		if m.sendOp.complete && m.sendOp.Err != nil {
			return e.P.MatchCost
		}
		now := e.K.Now()
		if e.Obs.Enabled() {
			e.Obs.RdvStarted(now, e.obsTID, m.sendOp.Bytes, m.recvOp.Eng.Rank,
				m.sendOp.Flow, now-m.sendOp.postedAt)
		}
		e.F.Send(e.Rank, m.recvOp.Eng.Rank, m.sendOp.Bytes, m.bwDiv,
			rdvData{sendOp: m.sendOp, recvOp: m.recvOp, sentAt: now})
		return e.P.RTSCost
	case rdvData:
		// Data landed in the user buffer at delivery time (RDMA); here the
		// receiver's software merely notices the completion-queue entry.
		m.recvOp.Flow = m.sendOp.Flow
		if e.Obs.Enabled() {
			e.Obs.RdvDone(e.K.Now(), e.obsTID, pkt.Bytes, pkt.Src, m.sendOp.Flow)
		}
		e.completeOp(m.recvOp, Status{Source: pkt.Src, Tag: m.recvOp.Tag, Count: pkt.Bytes})
		return e.P.MatchCost
	default:
		panic(fmt.Sprintf("proto: unknown payload %T", pkt.Payload))
	}
}

// matchPosted finds the earliest-posted receive matching an arrival,
// removes and returns it plus the matching cost. Both the hashed
// concrete-key FIFO and the wildcard list are candidates; MPI semantics
// pick whichever was posted first.
func (e *Engine) matchPosted(src, tag, comm int) (*Op, float64) {
	cost := e.P.MatchCost
	k := matchKey{comm, tag, src}
	q := e.postedX[k]
	for len(q) > 0 && q[0].matched {
		q = q[1:]
	}
	var exact *Op
	if len(q) == 0 {
		delete(e.postedX, k)
	} else {
		e.postedX[k] = q
		exact = q[0]
	}
	var wild *Op
	for _, op := range e.postedW {
		if op.matched {
			continue
		}
		cost += e.P.MatchCost
		if recvMatches(op.Peer, op.Tag, op.Comm, src, tag, comm) {
			wild = op
			break
		}
	}
	var chosen *Op
	switch {
	case exact == nil:
		chosen = wild
	case wild == nil || exact.seq < wild.seq:
		chosen = exact
	default:
		chosen = wild
	}
	if chosen == nil {
		return nil, cost
	}
	chosen.matched = true
	e.postedN--
	if chosen == exact {
		if len(q) == 1 {
			delete(e.postedX, k)
		} else {
			e.postedX[k] = q[1:]
		}
	} else if len(e.postedW) > 64 && e.livePostedW() < len(e.postedW)/2 {
		keep := e.postedW[:0]
		for _, op := range e.postedW {
			if !op.matched {
				keep = append(keep, op)
			}
		}
		e.postedW = keep
	}
	e.stats.PostedHit++
	return chosen, cost
}

func (e *Engine) livePostedW() int {
	n := 0
	for _, op := range e.postedW {
		if !op.matched {
			n++
		}
	}
	return n
}

// Iprobe drives one progress round and checks (without consuming) for a
// matching arrival in the unexpected queue.
func (e *Engine) Iprobe(t *vclock.Task, src, tag, comm int) (bool, Status) {
	t.SleepF(e.P.CallOverhead)
	e.Progress(t)
	for _, ux := range e.uxAll {
		if ux.consumed {
			continue
		}
		if recvMatches(src, tag, comm, ux.src, ux.tag, ux.comm) {
			return true, Status{Source: ux.src, Tag: ux.tag, Count: ux.bytes}
		}
	}
	return false, Status{}
}

// WaitAll drives progress until every request has completed. This is the
// funneled-mode blocking wait: the calling thread sits inside MPI, which is
// exactly when the baseline approach makes progress.
func (e *Engine) WaitAll(t *vclock.Task, reqs ...Req) {
	for {
		seq := e.actSeq
		e.Progress(t)
		if allDone(reqs) {
			t.SleepF(e.P.DoneFlagCost)
			return
		}
		if e.actSeq == seq {
			t.Wait(e.activity)
		}
	}
}

// WaitAllLocked is the THREAD_MULTIPLE blocking wait: the global lock is
// taken for each progress round and released while sleeping, so concurrent
// callers and the comm-self progress thread contend realistically. Long
// waits (beyond a polling burst) park on completion notifications when a
// dedicated progress agent is driving the engine — the µs-scale contention
// behaviour is unchanged, while ms-scale application waits stop costing
// one wakeup per arriving packet.
func (e *Engine) WaitAllLocked(t *vclock.Task, reqs ...Req) {
	const pollRounds = 32
	for round := 0; ; round++ {
		seq := e.actSeq
		e.EnterLock(t)
		e.Progress(t)
		done := allDone(reqs)
		if !done {
			// Wait loops poll the progress engine for a while before
			// conceding the lock (typical MPI wait-loop behaviour).
			t.SleepF(e.P.MTWaitSpin)
			e.Progress(t)
			done = allDone(reqs)
		}
		e.ExitLock(t)
		if done {
			t.SleepF(e.P.DoneFlagCost)
			return
		}
		if round >= pollRounds && e.HasAgent && e.parkUntilDone(t, reqs) {
			continue // re-check (and let the final poll charge costs)
		}
		if e.actSeq == seq {
			t.Wait(e.activity)
		}
	}
}

// parkUntilDone blocks the task until every request has completed, waking
// only on their completion callbacks. It reports false if any request
// cannot notify (caller falls back to activity polling).
func (e *Engine) parkUntilDone(t *vclock.Task, reqs []Req) bool {
	remaining := 0
	ev := vclock.NewEvent("waitpark")
	for _, r := range reqs {
		if r == nil || r.Done() {
			continue
		}
		n, ok := r.(Notifier)
		if !ok {
			return false
		}
		remaining++
		n.OnDone(func() {
			remaining--
			if remaining == 0 {
				ev.Broadcast(e.K)
			}
		})
	}
	for remaining > 0 {
		t.Wait(ev)
	}
	return true
}

func allDone(reqs []Req) bool {
	for _, r := range reqs {
		if r != nil && !r.Done() {
			return false
		}
	}
	return true
}

// AddProgressor registers a collective schedule with the progress engine.
func (e *Engine) AddProgressor(p Progressor) {
	e.progressors = append(e.progressors, p)
	e.bump()
}

// PendingInbox reports undrained arrivals. It is on the offload agent's hot
// path, not a diagnostic: the agent's loop (core.Offloader's run) reads it
// whenever its queue is empty, to drive progress over arrivals that no
// in-flight request of its own is waiting for.
func (e *Engine) PendingInbox() int { return len(e.inbox) }

// UnexpectedLen reports the unexpected-queue depth (diagnostics).
func (e *Engine) UnexpectedLen() int { return e.uxN }

// PostedLen reports the posted-queue depth (diagnostics).
func (e *Engine) PostedLen() int { return e.postedN }
