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
// the receiving NIC. Unacknowledged packets are retransmitted with the
// protocol core's capped exponential backoff (relcore.go); the receiver delivers
// exactly once and in send order (duplicates are dropped, gaps are
// reorder-buffered), so the matching engine above recovers transparently
// from transient loss and per-pair FIFO (MPI non-overtaking) is preserved
// under drop and duplication. The sublayer runs in NIC (timer-callback) context, like the
// reliable-connection state machines of InfiniBand hardware: it costs no
// simulated software time, but its counters are visible to software.
// Rendezvous bulk data (RDMA) already models a hardware-reliable channel
// and bypasses the sublayer.
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

// ackBytes is the wire size of an acknowledgement.
const ackBytes = 16

// relMsg is a sequenced, retransmittable packet (eager data or RTS/CTS).
// The sender keeps it pending and puts the same value on the wire again
// for each resend.
type relMsg struct {
	from  int
	seq   uint64
	bytes int
	bwDiv float64 // the sender's bandwidth divisor, reused by resends
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

// The protocol — sequencing, acks, the retry policy and the exactly-once
// receiver — is the shared core (relcore.go), instantiated here over
// fabric packets in virtual time and in internal/transport over wire
// frames in wall-clock time.

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
		tx = &RelTx[*relMsg]{}
		e.relTx[dst] = tx
	}
	m := &relMsg{from: e.Rank, bytes: bytes, bwDiv: bwDiv, inner: inner}
	m.seq = tx.Send(m)
	e.F.Send(e.Rank, dst, bytes, bwDiv, m)
	rto := e.rtoFor(bytes)
	e.armRetransmit(tx, dst, m.seq, rto, rto)
}

// rtoFor is the base retransmission timeout for a packet of n bytes:
// round-trip latency plus the packet's own wire time with headroom for
// queueing.
func (e *Engine) rtoFor(n int) float64 {
	return 4*e.P.LinkLatency + 2*e.P.WireTime(n) + 2*e.P.WireTime(ackBytes) + 2000
}

// armRetransmit schedules seq's retransmission check after timeout ns;
// rto is the packet's base timeout, which every re-arm scales by the
// policy's multiplier. The timer is never cancelled: one that fires for a
// packet already acked, abandoned or cancelled finds nothing pending. Each
// re-arm adds deterministic jitter from the injector's dedicated backoff PRNG:
// senders that lost packets on the same failed link would otherwise retry
// in lockstep forever, re-colliding on the recovered path. The jitter
// stream is separate from the packet-fate stream, and this code only runs
// under a fault plan, so fault-free timelines are untouched. An abandoned
// packet is left to the watchdog to report.
func (e *Engine) armRetransmit(tx *RelTx[*relMsg], dst int, seq uint64, rto, timeout float64) {
	e.K.AfterF(timeout, func() {
		m, mult, resend := tx.Expire(seq)
		if !resend {
			return
		}
		flow, _ := flowOfPayload(m.inner)
		e.Obs.Retransmitted(e.K.Now(), int64(seq), dst, flow)
		e.F.Send(e.Rank, dst, m.bytes, m.bwDiv, m)
		e.armRetransmit(tx, dst, seq, rto, rto*float64(mult)*(1+e.F.Fault().BackoffJitter()))
	})
}

// relDeliver runs in NIC context on a sequenced arrival: acknowledge
// unconditionally, then deliver exactly once in sequence order.
func (e *Engine) relDeliver(src int, m *relMsg) {
	e.F.Send(e.Rank, src, ackBytes, 1, &ackMsg{from: e.Rank, seq: m.seq})
	rx := e.relRx[src]
	if rx == nil {
		rx = &RelRx[*fabric.Packet]{}
		e.relRx[src] = rx
	}
	ready, _, _ := rx.Accept(m.seq, &fabric.Packet{Src: src, Dst: e.Rank, Bytes: m.bytes, Payload: m.inner})
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

// relAck retires the acknowledged packet (NIC context).
func (e *Engine) relAck(from int, seq uint64) {
	if tx := e.relTx[from]; tx != nil {
		tx.Ack(seq)
	}
}

// RelStats returns the engine's reliable-delivery counters, summed over
// its channels.
func (e *Engine) RelStats() RelStats {
	var s RelStats
	for _, tx := range e.relTx {
		s.Add(tx.Stats())
	}
	for _, rx := range e.relRx {
		s.Add(rx.Stats())
	}
	return s
}

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
// so its retransmission timers find nothing left to resend — the
// clean-cancel half of crash handling.
func (e *Engine) cancelPeer(peer int) {
	if tx := e.relTx[peer]; tx != nil {
		tx.Cancel(nil)
	}
}

func opKind(op *Op) string {
	if op.IsSend {
		return "send to"
	}
	return "recv from"
}
