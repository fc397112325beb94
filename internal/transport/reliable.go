package transport

// Reliable is the wall-clock adapter of the reliable-delivery protocol
// (proto.RelTx / proto.RelRx, the same core the simulator's NIC runs in
// virtual time): every outgoing data frame is wrapped in a per-(src,dst)
// sequence number and acknowledged by the receiver; unacknowledged frames
// are retransmitted with the core's backoff; the receiver delivers
// exactly once and in send order. This file owns only what is wall-clock:
// the KindSeq/KindAck framing, the per-peer locks, time.AfterFunc timers
// and the ack pump. Stack it over a Lossy socket and the rt layer above
// sees a clean FIFO wire no matter what the chaos plan does underneath.

import (
	"sync"
	"sync/atomic"
	"time"

	"mpioffload/internal/proto"
)

// relRTO is the base retransmission timeout; the core's backoff scales it
// per retry, up to 16 times.
const relRTO = 2 * time.Millisecond

// outFrame is one sequenced frame the sender half keeps until its ack,
// with its current retransmission timer. tmr is created, read and stopped
// only under the peer's tx lock.
type outFrame struct {
	f   Frame
	tmr *time.Timer
}

// txPeer is the sender half of one peer pair's channel.
type txPeer struct {
	mu   sync.Mutex
	core proto.RelTx[*outFrame]
}

// rxPeer is the receiver half, under its own lock: a delivery upcall can
// block on a full rt inbox while the same rank's agent sends to this
// peer, so one lock shared with txPeer would deadlock. Frames from one src
// arrive on one reader goroutine, but the loopback backend can deliver
// from several sender goroutines of the same rank, so ordering is
// enforced here rather than assumed.
type rxPeer struct {
	mu   sync.Mutex
	core proto.RelRx[Frame]
}

// Reliable wraps an endpoint with sequencing, acks and retransmission.
type Reliable struct {
	inner Endpoint
	h     atomic.Pointer[Handler] // application handler

	tx []txPeer // by destination rank
	rx []rxPeer // by source rank

	// Acks leave through a dedicated pump goroutine, never from the
	// delivery upcall: onFrame runs on the inner transport's reader, and a
	// reader that blocks on a full outbound socket while its own inbound
	// stream backs up deadlocks a bidirectional flood (each side's reader
	// stuck writing acks into the stream the other side's stuck reader is
	// not draining). The queue is unbounded — its depth is capped in
	// practice by the peers' in-flight windows — so the reader never waits.
	ackMu   sync.Mutex
	ackCond *sync.Cond
	ackQ    []Frame
	pump    sync.WaitGroup

	closed atomic.Bool
	timers sync.WaitGroup
}

// NewReliable wraps inner.
func NewReliable(inner Endpoint) *Reliable {
	r := &Reliable{
		inner: inner,
		tx:    make([]txPeer, inner.Size()),
		rx:    make([]rxPeer, inner.Size()),
	}
	r.ackCond = sync.NewCond(&r.ackMu)
	r.pump.Add(1)
	go r.ackPump()
	inner.Bind(r.onFrame)
	return r
}

// ackPump drains queued acks onto the wire. Runs until Close.
func (r *Reliable) ackPump() {
	defer r.pump.Done()
	for {
		r.ackMu.Lock()
		for len(r.ackQ) == 0 && !r.closed.Load() {
			r.ackCond.Wait()
		}
		batch := r.ackQ
		r.ackQ = nil
		r.ackMu.Unlock()
		if len(batch) == 0 && r.closed.Load() {
			return
		}
		for _, f := range batch {
			r.inner.Send(f)
		}
	}
}

// queueAck enqueues an ack for the pump (delivery context: must not block).
func (r *Reliable) queueAck(f Frame) {
	r.ackMu.Lock()
	r.ackQ = append(r.ackQ, f)
	r.ackMu.Unlock()
	r.ackCond.Signal()
}

// Rank returns the wrapped endpoint's rank.
func (r *Reliable) Rank() int { return r.inner.Rank() }

// Size returns the wrapped endpoint's rank count.
func (r *Reliable) Size() int { return r.inner.Size() }

// Bind installs the handler that receives the repaired in-order stream.
func (r *Reliable) Bind(h Handler) { r.h.Store(&h) }

// RelStats sums the channels' counters in the same shape as the simulated
// engine's (proto.RelStats), so sim and real chaos runs tabulate
// identically.
func (r *Reliable) RelStats() proto.RelStats {
	var s proto.RelStats
	for i := range r.tx {
		tx, rx := &r.tx[i], &r.rx[i]
		tx.mu.Lock()
		s.Add(tx.core.Stats())
		tx.mu.Unlock()
		rx.mu.Lock()
		s.Add(rx.core.Stats())
		rx.mu.Unlock()
	}
	return s
}

// Send sequences a data frame and transmits it, arming the retransmit
// timer. Non-data frames (a nested wrapper's control traffic) pass
// through unsequenced, as do frames to no rank, which the wrapped
// endpoint rejects.
func (r *Reliable) Send(f Frame) error {
	if r.closed.Load() {
		return ErrClosed
	}
	if f.Kind != KindData || f.Dst < 0 || f.Dst >= len(r.tx) {
		return r.inner.Send(f)
	}
	tx := &r.tx[f.Dst]
	f.Kind = KindSeq
	out := &outFrame{}
	tx.mu.Lock()
	f.Seq = tx.core.Send(out)
	out.f = f
	tx.mu.Unlock()
	err := r.inner.Send(f)
	r.arm(tx, out, relRTO)
	return err
}

// arm starts out's retransmission timer to fire after timeout, unless the
// frame was acked (or the channel closed) since it went on the wire.
func (r *Reliable) arm(tx *txPeer, out *outFrame, timeout time.Duration) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if r.closed.Load() || !tx.core.Pending(out.f.Seq) {
		return
	}
	r.timers.Add(1)
	out.tmr = time.AfterFunc(timeout, func() {
		defer r.timers.Done()
		tx.mu.Lock()
		_, mult, resend := tx.core.Expire(out.f.Seq)
		tx.mu.Unlock()
		if resend {
			r.inner.Send(out.f)
			r.arm(tx, out, relRTO*time.Duration(mult))
		}
	})
}

// stop cancels out's pending timer (tx lock held). A timer that already
// fired releases its own WaitGroup slot.
func (r *Reliable) stop(out *outFrame) {
	if out.tmr != nil && out.tmr.Stop() {
		r.timers.Done()
	}
}

// onFrame runs in the inner transport's delivery context.
func (r *Reliable) onFrame(f Frame) {
	if f.Src < 0 || f.Src >= len(r.rx) {
		return // not from a rank of this job
	}
	switch f.Kind {
	case KindSeq:
		// Ack unconditionally — the sender must stop retransmitting even
		// duplicates — then deliver exactly once, in order.
		r.queueAck(Frame{Kind: KindAck, Src: r.Rank(), Dst: f.Src, Seq: f.Seq})
		peer := &r.rx[f.Src]
		peer.mu.Lock()
		ready, _, _ := peer.core.Accept(f.Seq, f)
		// Deliver under the per-peer lock: concurrent ready batches from
		// one src must not interleave out of sequence order.
		if h := r.h.Load(); h != nil {
			for _, g := range ready {
				g.Kind = KindData
				g.Seq = 0
				(*h)(g)
			}
		}
		peer.mu.Unlock()
	case KindAck:
		tx := &r.tx[f.Src]
		tx.mu.Lock()
		if out, ok := tx.core.Ack(f.Seq); ok {
			r.stop(out)
		}
		tx.mu.Unlock()
	default:
		if h := r.h.Load(); h != nil {
			(*h)(f)
		}
	}
}

// Close stops every retransmission timer, joins the timer goroutines and
// closes the wrapped endpoint. Idempotent.
func (r *Reliable) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	for i := range r.tx {
		tx := &r.tx[i]
		tx.mu.Lock()
		tx.core.Cancel(r.stop)
		tx.mu.Unlock()
	}
	r.ackMu.Lock()
	r.ackQ = nil
	r.ackMu.Unlock()
	r.ackCond.Broadcast()
	err := r.inner.Close()
	r.timers.Wait()
	r.pump.Wait()
	return err
}

// Stats returns the wrapped endpoint's traffic counters.
func (r *Reliable) Stats() Stats { return r.inner.Stats() }
