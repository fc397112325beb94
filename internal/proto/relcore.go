package proto

// The reliable-delivery protocol's state machine, kept apart from its
// one adapter, the simulated engine (rel.go, NIC timer context, virtual
// time), which owns the clock and the wire. Every protocol decision
// (sequencing, ack bookkeeping, the resend / backoff / abandon policy,
// cancellation, dedup and reordering, and the RelStats counters) lives
// here, so it is tested against a reference model without a fabric.
// Neither half locks or reads a clock; callers serialize per peer. Loss
// is modelled in virtual time only: the real engine's streams never drop,
// duplicate or reorder a frame (DESIGN.md §16).
//
// RelTx and RelRx are generic over the buffered value; the engine keeps
// fabric packets.

// The retry policy. Each expiry of a pending value's timer resends it and
// re-arms the timer at the base timeout rto times 2^min(1+2+…+tries,
// relMaxShift), where tries counts resends so far: the timeout grows
// rto·(2, 8, 16, 16, …) and is capped at 16·rto, so the resends go out
// after rto·(1, 3, 11, 27, 43, …), then every 16·rto. The expiry after
// relMaxRetries resends abandons the value, leaving the failure to the
// layer's watchdog.
const (
	relMaxRetries = 20
	relMaxShift   = 4
)

// RelStats counts reliable-delivery events: one channel half's, or summed
// over an endpoint's channels with Add.
type RelStats struct {
	RelSends    int64 // sequenced packets first-sent
	Retransmits int64 // timer-driven resends
	Acks        int64 // acknowledgements sent (one per sequenced arrival)
	DupDropped  int64 // duplicate deliveries suppressed
	OutOfOrder  int64 // arrivals held for reordering
	Abandoned   int64 // packets given up after relMaxRetries resends
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

// RelTx is the sender half of one (src, dst) pair's reliable channel:
// values are numbered from 1 and stay pending until acknowledged,
// abandoned or cancelled. A sequence number that is no longer pending is
// never reused, so a timer that outlives its value finds nothing to do.
// The zero value is ready to use.
type RelTx[T any] struct {
	next    uint64
	pending map[uint64]*relOut[T]
	stats   RelStats
}

// relOut is one unacknowledged value and the resends it has had.
type relOut[T any] struct {
	v     T
	tries int
}

// Send registers v as pending under the pair's next sequence number and
// returns it. The caller transmits v and arms its first timer.
func (tx *RelTx[T]) Send(v T) uint64 {
	if tx.pending == nil {
		tx.pending = make(map[uint64]*relOut[T])
	}
	tx.next++
	tx.pending[tx.next] = &relOut[T]{v: v}
	tx.stats.RelSends++
	return tx.next
}

// Pending reports whether seq still awaits its ack.
func (tx *RelTx[T]) Pending(seq uint64) bool {
	_, ok := tx.pending[seq]
	return ok
}

// Ack removes seq from the pending set, returning its value; ok is false
// for an ack of nothing pending (a duplicate, or a value already given up).
func (tx *RelTx[T]) Ack(seq uint64) (v T, ok bool) {
	p, ok := tx.pending[seq]
	if ok {
		delete(tx.pending, seq)
		v = p.v
	}
	return v, ok
}

// Expire handles the firing of seq's retransmission timer. When resend is
// true the caller retransmits v and re-arms the timer at the base timeout
// times mult. It is false when seq is no longer pending, and when
// this expiry used up the retry budget: the value is then abandoned.
func (tx *RelTx[T]) Expire(seq uint64) (v T, mult int, resend bool) {
	p, ok := tx.pending[seq]
	if !ok {
		return v, 0, false
	}
	if p.tries >= relMaxRetries {
		delete(tx.pending, seq)
		tx.stats.Abandoned++
		return v, 0, false
	}
	p.tries++
	tx.stats.Retransmits++
	return p.v, 1 << min(p.tries*(p.tries+1)/2, relMaxShift), true
}

// Cancel drops every pending value — the peer died or the endpoint is
// closing — passing each to drop (if non-nil) so its timer can be stopped.
func (tx *RelTx[T]) Cancel(drop func(T)) {
	for seq, p := range tx.pending {
		delete(tx.pending, seq)
		if drop != nil {
			drop(p.v)
		}
	}
}

// Stats returns the sender-side counters (RelSends, Retransmits,
// Abandoned).
func (tx *RelTx[T]) Stats() RelStats { return tx.stats }

// RelRx is the receiver half of one (src, dst) pair's reliable channel:
// sequence numbers start at 1 and every value is delivered exactly once,
// in sequence order, no matter how the wire reordered or duplicated it.
// The receiver acknowledges every sequenced arrival, duplicates included
// (the sender must stop retransmitting even those), before Accept.
type RelRx[T any] struct {
	expect uint64 // highest contiguously delivered seq
	ooo    map[uint64]T
	stats  RelStats
}

// Accept processes the arrival of sequence number seq carrying v.
//
//   - In-order (seq == expect+1): v and any directly following buffered
//     values are returned in ready, in sequence order.
//   - Early (seq > expect+1): v is buffered; held is true. A duplicate of
//     an already-buffered seq reports dup instead.
//   - Late (seq <= expect): already delivered; dup is true.
//
// The caller must deliver ready in order before processing the peer's
// next arrival.
func (rx *RelRx[T]) Accept(seq uint64, v T) (ready []T, dup, held bool) {
	rx.stats.Acks++
	switch {
	case seq == rx.expect+1:
		rx.expect++
		ready = append(ready, v)
		for {
			next, ok := rx.ooo[rx.expect+1]
			if !ok {
				break
			}
			delete(rx.ooo, rx.expect+1)
			rx.expect++
			ready = append(ready, next)
		}
		return ready, false, false
	case seq > rx.expect+1:
		if rx.ooo == nil {
			rx.ooo = make(map[uint64]T)
		}
		if _, buffered := rx.ooo[seq]; buffered {
			rx.stats.DupDropped++
			return nil, true, false
		}
		rx.ooo[seq] = v
		rx.stats.OutOfOrder++
		return nil, false, true
	default:
		rx.stats.DupDropped++
		return nil, true, false
	}
}

// Expect returns the highest contiguously delivered sequence number.
func (rx *RelRx[T]) Expect() uint64 { return rx.expect }

// Held returns the number of values waiting in the reorder buffer.
func (rx *RelRx[T]) Held() int { return len(rx.ooo) }

// Stats returns the receiver-side counters (Acks, DupDropped, OutOfOrder).
func (rx *RelRx[T]) Stats() RelStats { return rx.stats }
