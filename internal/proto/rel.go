package proto

import (
	"errors"
	"fmt"
	"math"

	"mpioffload/internal/fabric"
)

// Reliable delivery and the request watchdog.
//
// When the fabric carries a lossy fault plan, every software-recoverable
// packet class — eager payloads and rendezvous RTS/CTS control messages —
// is wrapped in a per-(src,dst)-pair sequence number and acknowledged by
// the receiving NIC. Unacknowledged packets are retransmitted with
// exponential backoff; the receiver delivers exactly once and in send
// order (duplicates are dropped, gaps are reorder-buffered), so the
// matching engine above recovers transparently from transient loss and
// per-pair FIFO (MPI non-overtaking) is preserved under drop and
// duplication. The sublayer runs in NIC (timer-callback) context, like the
// reliable-connection state machines of InfiniBand hardware: it costs no
// simulated software time, but its counters are visible to software.
// Rendezvous bulk data (RDMA) and one-sided packets already model a
// hardware-reliable channel and bypass the sublayer.
//
// The watchdog is orthogonal and covers what retransmission cannot fix:
// a request still in flight Deadline ns after posting is failed with
// ErrTimeout — or ErrRankFailed when the simulation's failure detector
// says the peer crashed — instead of blocking its Wait forever. Failing a
// request completes it (waiters wake, offload done-flags set) with Err
// recorded, so every approach, offloaded or direct, degrades gracefully.

// Watchdog failure causes, surfaced through Op.Err (and re-exported as
// mpi.ErrTimeout / mpi.ErrRankFailed).
var (
	ErrTimeout    = errors.New("request deadline exceeded")
	ErrRankFailed = errors.New("peer rank failed")
)

// RelStats counts reliable-delivery events for one engine.
type RelStats struct {
	RelSends    int64 // sequenced packets first-sent
	Retransmits int64 // timer-driven resends
	Acks        int64 // acknowledgements sent
	DupDropped  int64 // duplicate deliveries suppressed
	OutOfOrder  int64 // arrivals held for reordering
	Abandoned   int64 // packets given up after MaxRetries
}

// Add accumulates o into s.
func (s *RelStats) Add(o RelStats) {
	s.RelSends += o.RelSends
	s.Retransmits += o.Retransmits
	s.Acks += o.Acks
	s.DupDropped += o.DupDropped
	s.OutOfOrder += o.OutOfOrder
	s.Abandoned += o.Abandoned
}

const (
	ackBytes          = 16 // wire size of an acknowledgement
	defaultMaxRetries = 20
	maxBackoffShift   = 4 // backoff caps at rto << 4
)

// relMsg is a sequenced, retransmittable packet (eager data or RTS/CTS).
type relMsg struct {
	from  int
	seq   uint64
	bytes int
	inner any
}

// ackMsg acknowledges one sequence number back to the sender.
type ackMsg struct {
	from int
	seq  uint64
}

// Faultable opts the sequenced classes into injected drop/duplication —
// precisely the packets the sublayer knows how to recover.
func (*relMsg) Faultable() {}
func (*ackMsg) Faultable() {}

// relPending is an unacknowledged packet awaiting its ack.
type relPending struct {
	seq   uint64
	dst   int
	bytes int
	bwDiv float64
	inner any
	tries int
	done  bool // acked or abandoned
}

// relTxState is the sender half of one peer pair's reliable channel.
type relTxState struct {
	next    uint64
	pending map[uint64]*relPending
}

// The receiver half — next expected seq plus reorder buffer — is the
// shared RelRx core (relcore.go), instantiated here over fabric packets
// and in internal/transport over wire frames.

// relOn reports whether sends to dst must be sequenced: the sublayer runs
// only when the fault plan can lose packets, and only on inter-node pairs
// (shared memory is never lossy).
func (e *Engine) relOn(dst int) bool {
	return e.rel && e.F.NodeOf(e.Rank) != e.F.NodeOf(dst)
}

// sendRel transmits a recoverable packet, sequencing it when the pair's
// reliable channel is active and passing it through verbatim otherwise
// (the zero-fault fast path: no extra packets, no extra state).
func (e *Engine) sendRel(dst, bytes int, bwDiv float64, inner any) {
	if !e.relOn(dst) {
		e.F.Send(e.Rank, dst, bytes, bwDiv, inner)
		return
	}
	tx := e.relTx[dst]
	if tx == nil {
		tx = &relTxState{pending: make(map[uint64]*relPending)}
		e.relTx[dst] = tx
	}
	tx.next++
	p := &relPending{seq: tx.next, dst: dst, bytes: bytes, bwDiv: bwDiv, inner: inner}
	tx.pending[p.seq] = p
	e.relStats.RelSends++
	e.F.Send(e.Rank, dst, bytes, bwDiv, &relMsg{from: e.Rank, seq: p.seq, bytes: bytes, inner: inner})
	e.armRetransmit(p, e.rtoFor(bytes))
}

// rtoFor is the base retransmission timeout for a packet of n bytes: the
// plan's override, or round-trip latency plus the packet's own wire time
// with headroom for queueing.
func (e *Engine) rtoFor(n int) float64 {
	if e.rto > 0 {
		return e.rto + e.P.WireTime(n)
	}
	return 4*e.P.LinkLatency + 2*e.P.WireTime(n) + 2*e.P.WireTime(ackBytes) + 2000
}

// armRetransmit schedules the retransmission check for p after rto ns.
// Resends back off exponentially (capped) until the ack lands or the retry
// budget is spent; an abandoned packet is left to the watchdog to report.
// Each re-arm adds deterministic jitter from the injector's dedicated
// backoff PRNG: senders that lost packets on the same failed link would
// otherwise retry in lockstep forever, re-colliding on the recovered
// path. The jitter stream is separate from the packet-fate stream, and
// this code only runs under a fault plan, so fault-free timelines are
// untouched.
func (e *Engine) armRetransmit(p *relPending, rto float64) {
	e.K.AfterF(rto, func() {
		if p.done {
			return
		}
		if p.tries >= e.maxRetries {
			p.done = true
			delete(e.relTx[p.dst].pending, p.seq)
			e.relStats.Abandoned++
			return
		}
		p.tries++
		e.relStats.Retransmits++
		flow, _ := flowOfPayload(p.inner)
		e.Obs.Retransmitted(e.K.Now(), int64(p.seq), p.dst, flow)
		e.F.Send(e.Rank, p.dst, p.bytes, p.bwDiv, &relMsg{from: e.Rank, seq: p.seq, bytes: p.bytes, inner: p.inner})
		shift := p.tries
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		e.armRetransmit(p, rto*float64(int(1)<<shift)*(1+e.F.Fault().BackoffJitter()))
	})
}

// relDeliver runs in NIC context on a sequenced arrival: acknowledge
// unconditionally (the sender must stop retransmitting even duplicates),
// then deliver exactly once in sequence order.
func (e *Engine) relDeliver(src int, m *relMsg) {
	e.relStats.Acks++
	e.F.Send(e.Rank, src, ackBytes, 1, &ackMsg{from: e.Rank, seq: m.seq})
	rx := e.relRx[src]
	if rx == nil {
		rx = &RelRx[*fabric.Packet]{}
		e.relRx[src] = rx
	}
	pkt := &fabric.Packet{Src: src, Dst: e.Rank, Bytes: m.bytes, Payload: m.inner}
	ready, dup, held := rx.Accept(m.seq, pkt)
	if dup {
		e.relStats.DupDropped++
	}
	if held {
		e.relStats.OutOfOrder++
	}
	for _, p := range ready {
		e.acceptRel(p)
	}
}

// acceptRel hands an in-order unwrapped packet to the normal delivery
// path. The flow delivery stamp is recorded here — on the unwrapped
// payload, after dedup/reorder — so transit time under loss includes the
// retransmission delay the message actually suffered.
func (e *Engine) acceptRel(pkt *fabric.Packet) {
	e.noteDelivered(pkt)
	e.inbox = append(e.inbox, pkt)
	e.bump()
}

// relAck marks the acknowledged packet delivered (NIC context).
func (e *Engine) relAck(from int, seq uint64) {
	tx := e.relTx[from]
	if tx == nil {
		return
	}
	if p, ok := tx.pending[seq]; ok {
		p.done = true
		delete(tx.pending, seq)
	}
}

// RelStats returns the engine's reliable-delivery counters.
func (e *Engine) RelStats() RelStats { return e.relStats }

// ---- watchdog ----------------------------------------------------------

// watchOp registers an incomplete request with the watchdog: if it is
// still in flight Deadline ns from now it will be failed instead of
// blocking its waiters forever. No-op when the watchdog is disabled.
func (e *Engine) watchOp(op *Op) {
	if e.Deadline <= 0 || op.complete {
		return
	}
	op.expires = float64(e.K.Now()) + e.Deadline
	e.watch = append(e.watch, op)
	if !e.watchArmed {
		e.watchArmed = true
		e.K.AfterF(e.Deadline, e.watchdogFire)
	}
}

// watchdogFire sweeps the watch list (timer context), failing expired
// requests and re-arming for the earliest survivor.
func (e *Engine) watchdogFire() {
	e.watchArmed = false
	now := float64(e.K.Now())
	next := math.Inf(1)
	keep := e.watch[:0]
	for _, op := range e.watch {
		if op.complete {
			continue
		}
		if now+0.5 >= op.expires {
			err := ErrTimeout
			if op.Peer >= 0 && e.F.RankFailed(op.Peer) {
				err = ErrRankFailed
				e.cancelPeer(op.Peer)
			}
			e.failOp(op, err)
			continue
		}
		if op.expires < next {
			next = op.expires
		}
		keep = append(keep, op)
	}
	for i := len(keep); i < len(e.watch); i++ {
		e.watch[i] = nil
	}
	e.watch = keep
	if len(keep) > 0 {
		e.watchArmed = true
		e.K.AfterF(next-now, e.watchdogFire)
	}
}

// failOp completes a request with an error: waiters wake and observe
// op.Err instead of blocking forever. A failed posted receive is
// tombstoned out of the matching queues.
func (e *Engine) failOp(op *Op, err error) {
	if op.complete {
		return
	}
	e.stats.WatchdogTrips++
	e.Obs.WatchdogTripped(e.K.Now(), op.Peer)
	op.Err = fmt.Errorf("%w (rank %d %s peer %d after %.0f ns)",
		err, e.Rank, opKind(op), op.Peer, e.Deadline)
	if op.queued && !op.matched {
		op.matched = true
		e.postedN--
	}
	e.completeOp(op, op.Stat)
}

// cancelPeer drops every unacknowledged packet destined to a failed rank,
// stopping its retransmission timers — the clean-cancel half of crash
// handling.
func (e *Engine) cancelPeer(peer int) {
	tx := e.relTx[peer]
	if tx == nil {
		return
	}
	for seq, p := range tx.pending {
		p.done = true
		delete(tx.pending, seq)
	}
}

func opKind(op *Op) string {
	if op.IsSend {
		return "send to"
	}
	return "recv from"
}
