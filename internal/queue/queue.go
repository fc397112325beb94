// Package queue provides the lock-free queues used by the MPI offload
// infrastructure (paper §3.1, §3.3).
//
// MPMC is a bounded multi-producer/multi-consumer queue (Vyukov-style
// sequence ring). Application threads — one per thread under
// MPI_THREAD_MULTIPLE — enqueue serialized MPI commands concurrently; the
// single offload thread dequeues them. The queue is linearizable, and
// per-producer FIFO order is preserved, which is what MPI's non-overtaking
// rule requires of calls issued by one thread.
//
// SPSC is a cheaper single-producer/single-consumer ring used when the
// application promises MPI_THREAD_FUNNELED or MPI_THREAD_SERIALIZED.
package queue

import (
	"sync/atomic"
)

type pad [7]uint64 // cache-line padding between hot atomics

type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a bounded lock-free multi-producer multi-consumer FIFO queue.
type MPMC[T any] struct {
	mask  uint64
	slots []slot[T]
	_     pad
	enq   atomic.Uint64
	_     pad
	deq   atomic.Uint64
	_     pad // keeps the next heap object off deq's line
}

// NewMPMC returns a queue with capacity rounded up to the next power of two
// (minimum 2).
func NewMPMC[T any](capacity int) *MPMC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	q := &MPMC[T]{mask: uint64(n - 1), slots: make([]slot[T], n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// TryEnqueue appends v, reporting false if the queue is full.
func (q *MPMC[T]) TryEnqueue(v T) bool {
	pos := q.enq.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case d < 0:
			return false // full
		default:
			pos = q.enq.Load()
		}
	}
}

// TryDequeue removes the oldest element, reporting false if empty.
func (q *MPMC[T]) TryDequeue() (T, bool) {
	var zero T
	pos := q.deq.Load()
	for {
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos+1); {
		case d == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				v := s.val
				s.val = zero
				s.seq.Store(pos + q.mask + 1)
				return v, true
			}
			pos = q.deq.Load()
		case d < 0:
			return zero, false // empty
		default:
			pos = q.deq.Load()
		}
	}
}

// Len reports an instantaneous (racy) element count; exact when quiescent.
func (q *MPMC[T]) Len() int {
	n := int64(q.enq.Load()) - int64(q.deq.Load())
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Empty reports whether the queue appears empty.
func (q *MPMC[T]) Empty() bool { return q.Len() == 0 }

// SPSC is a bounded wait-free single-producer single-consumer FIFO ring.
//
// Each side keeps a plain-field cache of the other side's index (the
// classic Vyukov refinement): the producer touches the consumer's head
// line only when the ring looks full against its cache, and the consumer touches the producer's tail line
// only when the ring looks empty — so a steady-state enqueue or dequeue
// reads no cache line the other core is writing.
type SPSC[T any] struct {
	mask       uint64
	buf        []T
	_          pad
	head       atomic.Uint64 // next read index (consumer-owned)
	cachedTail uint64        // consumer's last view of tail (consumer-owned)
	_          pad
	tail       atomic.Uint64 // next write index (producer-owned)
	cachedHead uint64        // producer's last view of head (producer-owned)
	_          pad           // keeps the next heap object off tail's line
}

// NewSPSC returns a ring with capacity rounded up to the next power of two
// (minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{mask: uint64(n - 1), buf: make([]T, n)}
}

// TryEnqueue appends v, reporting false if the ring is full. Must be called
// from the single producer only.
func (q *SPSC[T]) TryEnqueue(v T) bool {
	t := q.tail.Load()
	if t-q.cachedHead >= uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// TryDequeue removes the oldest element, reporting false if empty. Must be
// called from the single consumer only.
func (q *SPSC[T]) TryDequeue() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h == q.cachedTail {
			return zero, false
		}
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero
	q.head.Store(h + 1)
	return v, true
}

// Len reports an instantaneous element count.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Empty reports whether the ring appears empty.
func (q *SPSC[T]) Empty() bool { return q.Len() == 0 }
