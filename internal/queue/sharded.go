package queue

import (
	"math/bits"
	"sync/atomic"
)

// Overflow is the shard id used by unregistered producers: their commands
// travel through the shared MPMC overflow shard instead of a private ring.
const Overflow = -1

// Sharded is the sharded command queue of the offload path (paper §3.3).
//
// The single shared MPMC ring becomes the contention point once many
// MPI_THREAD_MULTIPLE application threads post concurrently: every enqueue
// is a CAS on the same cache line. Sharded splits submission instead: each
// registered application thread owns a private SPSC ring (enqueue is two
// plain stores — no CAS, no shared line), and producers that never
// registered (short-lived threads, more threads than shards) fall back to
// one shared MPMC overflow shard. The single consumer — the offload
// thread — drains all shards.
//
// Ordering: per-producer FIFO is preserved (each producer's commands live
// in one ring, drained in ring order), which is all MPI's non-overtaking
// rule requires. No total order across producers is promised — the shared
// MPMC never promised a meaningful one under contention either.
//
// Drain cost: the consumer does not scan every shard. An occupancy bitmap
// (the doorbell mask) carries one bit per shard — producers ring it with a
// read-mostly test-then-CAS on enqueue, the consumer walks only the set
// bits — so a drain is O(occupied shards), not O(ShardCount). This is what
// keeps a wide queue (many shards for many threads) cheap when only a few
// threads are active: the old full round-robin scan made sharded *lose* to
// the shared queue at high shard counts.
//
// Fairness: the consumer resumes its scan from a rotating cursor within
// the mask, taking at most one element per shard per rotation, so a hot
// shard cannot starve the others (or the overflow shard, which occupies
// the last rotation position). A separate doorbell — an atomic count of
// pending elements, rung by every enqueue — bounds the batch and lets the
// consumer skip the drain entirely when the queue is empty. The pending
// count is the single source of depth truth: the embedded overflow ring's
// own depth tracking is disabled so overflow-resident elements are not
// accounted twice.
//
// Bit protocol (why no element is stranded): a producer stores into its
// ring, bumps pending, then sets its bit (skipping the CAS when the bit is
// already set). The consumer, on finding a set bit over an empty ring,
// clears the bit and then re-checks the ring, re-setting the bit if an
// element appeared. Under sequentially consistent atomics every
// interleaving either leaves the bit set or has the producer's set follow
// the consumer's clear, so a non-empty ring always has its bit restored.
//
// Memory is committed on use: NewSharded allocates only the shard table and
// the doorbell mask. Register allocates the caller's ring before returning
// its id, and the overflow ring is installed (by CAS, since unregistered
// producers race there) on the first overflow enqueue. The bit protocol
// also publishes the rings: a producer stores its ring pointer before it
// first sets its bit, and the consumer dereferences shards[s] only for a
// set bit, so the bit's atomic store and load order the two.
//
// Concurrency contract: Register and TryEnqueue may be called from any
// number of goroutines (a registered shard id must be used by its owning
// producer only); DequeueBatch must be called from a single consumer.
type Sharded[T any] struct {
	shards      []*SPSC[T]              // nil until Register claims the id
	overflow    atomic.Pointer[MPMC[T]] // nil until the first overflow enqueue
	occ         []atomic.Uint64         // doorbell mask: bit s = shard s may be non-empty
	_           pad
	nextReg     atomic.Int64 // registration cursor
	_           pad
	pending     atomic.Int64 // doorbell: elements enqueued and not yet dequeued
	_           pad
	hwm         atomic.Int64 // pending high-water mark, sampled by the consumer
	cursor      int          // consumer rotation position (consumer-owned)
	depthFn     func(int64)  // optional consumer-side depth sampler
	shardCap    int          // ring sizes, read only when a ring is allocated
	overflowCap int
}

// NewSharded returns a queue with up to shardCount private SPSC shards of
// shardCap elements each plus an MPMC overflow shard of overflowCap
// (capacities round up to powers of two, minimum 2; shardCount minimum 1).
// The capacities are bounds, not allocations: a shard's ring is allocated
// when Register claims it, the overflow ring on the first overflow
// enqueue, so an unused queue costs O(shardCount) words.
func NewSharded[T any](shardCount, shardCap, overflowCap int) *Sharded[T] {
	if shardCount < 1 {
		shardCount = 1
	}
	return &Sharded[T]{
		shards:      make([]*SPSC[T], shardCount),
		shardCap:    shardCap,
		overflowCap: overflowCap,
		occ:         make([]atomic.Uint64, (shardCount+1+63)/64),
	}
}

// overflowRing returns the overflow ring, installing it first if no
// producer has yet. Racing installers all end up with the CAS winner's ring.
func (q *Sharded[T]) overflowRing() *MPMC[T] {
	if r := q.overflow.Load(); r != nil {
		return r
	}
	r := NewMPMC[T](q.overflowCap)
	if q.overflow.CompareAndSwap(nil, r) {
		return r
	}
	return q.overflow.Load()
}

// orBit sets bit i in the mask. CAS loop rather than atomic.Uint64.Or to
// stay within the module's go directive.
func (q *Sharded[T]) orBit(i int) {
	w, m := &q.occ[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&m != 0 || w.CompareAndSwap(old, old|m) {
			return
		}
	}
}

// clearBit clears bit i in the mask (consumer only, but producers may be
// setting neighbors concurrently, hence CAS).
func (q *Sharded[T]) clearBit(i int) {
	w, m := &q.occ[i>>6], uint64(1)<<(i&63)
	for {
		old := w.Load()
		if old&m == 0 || w.CompareAndSwap(old, old&^m) {
			return
		}
	}
}

// ringBell marks shard i possibly non-empty. Read-mostly: steady-state
// producers find their bit already set and touch no shared line.
func (q *Sharded[T]) ringBell(i int) {
	if q.occ[i>>6].Load()&(uint64(1)<<(i&63)) == 0 {
		q.orBit(i)
	}
}

// scanRange returns the lowest set bit in [lo, hi), or -1.
func (q *Sharded[T]) scanRange(lo, hi int) int {
	for base := lo &^ 63; base < hi; base += 64 {
		word := q.occ[base>>6].Load()
		if lo > base {
			word &^= (uint64(1) << (lo - base)) - 1
		}
		if hi-base < 64 {
			word &= (uint64(1) << (hi - base)) - 1
		}
		if word != 0 {
			return base + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// nextOccupied returns the first set bit at or after from, wrapping once
// through the whole rotation, or -1 when the mask is empty.
func (q *Sharded[T]) nextOccupied(from int) int {
	rot := len(q.shards) + 1
	if s := q.scanRange(from, rot); s >= 0 {
		return s
	}
	if from > 0 {
		return q.scanRange(0, from)
	}
	return -1
}

// Register claims a private shard for the calling producer, allocating its
// ring of shardCap elements, and returns its shard id, or Overflow when
// every shard is already owned. Register before the first enqueue: a
// producer that mixes overflow and shard submissions loses its FIFO
// guarantee across the switch.
func (q *Sharded[T]) Register() int {
	id := q.nextReg.Add(1) - 1
	if id >= int64(len(q.shards)) {
		return Overflow
	}
	q.shards[id] = NewSPSC[T](q.shardCap)
	return int(id)
}

// TryEnqueue appends v to the producer's shard (or the overflow shard for
// Overflow / out-of-range ids), reporting false when that shard is full.
// A registered producer whose shard is full must retry — falling back to
// the overflow shard would break its FIFO order.
func (q *Sharded[T]) TryEnqueue(shard int, v T) bool {
	bit := len(q.shards) // overflow's rotation position
	var ok bool
	if shard >= 0 && shard < len(q.shards) {
		ok = q.shards[shard].TryEnqueue(v)
		bit = shard
	} else {
		ok = q.overflowRing().TryEnqueue(v)
	}
	if ok {
		q.pending.Add(1) // ring the doorbell
		q.ringBell(bit)
	}
	return ok
}

// shardEmpty reports whether rotation position s holds no visible element.
// Consumer only, and only for a position whose bit was seen set, so its
// ring exists.
func (q *Sharded[T]) shardEmpty(s int) bool {
	if s < len(q.shards) {
		return q.shards[s].Empty()
	}
	return q.overflow.Load().Empty()
}

// DequeueBatch fills dst with up to len(dst) elements and returns how many
// it took. The scan walks only set bits in the occupancy mask, resuming
// from a rotating cursor and taking at most one element per shard per
// rotation, so a hot shard cannot starve the rest within a batch. Single
// consumer only.
func (q *Sharded[T]) DequeueBatch(dst []T) int {
	p := q.pending.Load()
	if len(dst) == 0 || p <= 0 {
		return 0
	}
	// Consumer-side high-water sampling: only this goroutine writes hwm, so
	// a plain load/store pair suffices — producers pay nothing for it.
	if p > q.hwm.Load() {
		q.hwm.Store(p)
	}
	if q.depthFn != nil {
		q.depthFn(p)
	}
	// The doorbell bounds the batch: once `want` elements are in hand there
	// is no point walking the mask just to observe empty shards (new
	// arrivals are picked up next wakeup).
	want := int(p)
	if want > len(dst) {
		want = len(dst)
	}
	rot := len(q.shards) + 1
	n, misses := 0, 0
	for n < want && misses < 2*rot {
		s := q.nextOccupied(q.cursor)
		if s < 0 {
			break // mask empty: every in-flight element will re-ring the bell
		}
		q.cursor = s + 1
		if q.cursor >= rot {
			q.cursor = 0
		}
		var v T
		var ok bool
		if s < len(q.shards) {
			v, ok = q.shards[s].TryDequeue()
		} else {
			v, ok = q.overflow.Load().TryDequeue()
		}
		if !ok {
			// Stale bit: clear it, then re-check the ring — a producer may
			// have stored between the probe and the clear (see the bit
			// protocol in the type comment).
			q.clearBit(s)
			if !q.shardEmpty(s) {
				q.orBit(s)
			}
			misses++
			continue
		}
		misses = 0
		dst[n] = v
		n++
		q.pending.Add(-1)
		// The bit stays set even if this took the last element: the next
		// probe of s clears it lazily, off the success path.
	}
	return n
}

// Len reports the pending element count across all shards (racy under
// concurrent producers; exact when quiescent).
func (q *Sharded[T]) Len() int {
	n := q.pending.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Empty reports whether the queue appears empty — one atomic load, no scan.
func (q *Sharded[T]) Empty() bool { return q.Len() == 0 }

// HighWater reports the deepest the queue has been observed (total pending
// across shards, sampled at each consumer drain) since creation. Elements
// in the overflow shard are counted once, here: the rings keep no depth
// mark of their own.
func (q *Sharded[T]) HighWater() int { return int(q.hwm.Load()) }

// SetDepthSampler installs a consumer-side depth sampler, invoked with the
// pending count at each non-empty drain (the same point the high-water
// mark is sampled). The observability layer feeds it into a depth
// histogram. Install before the consumer starts; nil disables. Producers
// pay nothing for it.
func (q *Sharded[T]) SetDepthSampler(fn func(depth int64)) { q.depthFn = fn }
