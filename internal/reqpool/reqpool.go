// Package reqpool implements the lock-free MPI_Request pool of the offload
// infrastructure (paper §3.1):
//
//	"We address this by allocating an array of MPI_Request objects within
//	 the offload infrastructure; we assign a free object from this pool to
//	 each nonblocking call and return its index to the application as the
//	 MPI_Request. We maintain this pool as an array-based singly linked
//	 list in order to minimize allocation and free time."
//
// The free list is a Treiber stack of array indices. The head word packs a
// 32-bit generation counter with the index to defeat ABA. Get and Put are
// lock-free and safe for concurrent use by any number of threads (§3.3
// converts the pool to lock-free so MPI_THREAD_MULTIPLE callers scale).
//
// The array is committed as it is used rather than chained up front: slots
// live in fixed-size chunks installed on first hand-out, and slots never
// handed out are counted by a bump index instead of sitting on the free
// list. Get pops the free list first and only then takes the next fresh
// index, which is exactly the order a fully pre-chained list (0, 1, …, n-1,
// with Put pushing on top) would give, so handles are the same either way.
//
// Each slot carries a done flag (paper §3.2): the offload thread sets it
// when the underlying MPI operation completes, and application Wait/Test
// calls merely observe it.
package reqpool

import (
	"sync/atomic"
)

// None is the index returned by Get when the pool is exhausted.
const None = -1

const (
	idxBits   = 32
	chunkBits = 6 // 64 slots (512 bytes) are committed at a time
	chunkLen  = 1 << chunkBits
)

// chunk holds chunkLen slots. The links and the done flags are separate
// arrays so that a waiter spinning on a done flag shares its cache line
// only with other done flags, not with the free-list links that every Get
// and Put write.
type chunk struct {
	next [chunkLen]atomic.Int32 // free-list links: index+1, 0 terminates
	done [chunkLen]atomic.Uint32
}

// Pool is a fixed-size lock-free pool of request slots, addressed by index.
type Pool struct {
	head   atomic.Uint64           // generation<<32 | (index+1); 0 means empty
	fresh  atomic.Int64            // slots [fresh, size) have never been handed out
	chunks []atomic.Pointer[chunk] // nil until a slot in the chunk is first handed out
	size   int
	occFn  func(int64)  // optional occupancy sampler, invoked on each Get
	_      uint64       // inUse sits 64 bytes past head: Get and Put hit both
	inUse  atomic.Int64 // slots currently allocated
	hwm    atomic.Int64 // occupancy high-water mark
}

// New returns a pool of n slots, all free. n is a bound, not an
// allocation: New writes nothing per slot, and a slot's memory is
// committed, a chunk at a time, when it is first handed out.
func New(n int) *Pool {
	if n < 1 {
		panic("reqpool: size < 1")
	}
	if n >= 1<<(idxBits-1) {
		panic("reqpool: size too large")
	}
	return &Pool{
		chunks: make([]atomic.Pointer[chunk], (n+chunkLen-1)/chunkLen),
		size:   n,
	}
}

// chunk returns the chunk holding slot idx, which must have been handed
// out at least once, and idx's position in it.
func (p *Pool) chunk(idx int) (*chunk, int) {
	return p.chunks[idx>>chunkBits].Load(), idx & (chunkLen - 1)
}

// commit returns the chunk holding the fresh slot idx, installing it first
// if no slot in it was handed out before, and idx's position in it.
// Getters racing on the same chunk all end up with the CAS winner's.
func (p *Pool) commit(idx int) (*chunk, int) {
	c := &p.chunks[idx>>chunkBits]
	if c.Load() == nil {
		c.CompareAndSwap(nil, new(chunk))
	}
	return c.Load(), idx & (chunkLen - 1)
}

func pack(gen uint32, idxPlus1 int64) uint64 {
	return uint64(gen)<<idxBits | uint64(uint32(idxPlus1))
}

func unpack(w uint64) (gen uint32, idxPlus1 int64) {
	return uint32(w >> idxBits), int64(uint32(w))
}

// Size reports the total number of slots.
func (p *Pool) Size() int { return p.size }

// Get returns a free slot index: the most recently Put one if any, else
// the lowest never-used one, or None if all size slots are handed out.
// The slot's done flag is reset before it is returned.
func (p *Pool) Get() int {
	idx, c, i := p.take()
	if c == nil {
		return None
	}
	c.done[i].Store(0)
	n := p.inUse.Add(1)
	for {
		h := p.hwm.Load()
		if n <= h || p.hwm.CompareAndSwap(h, n) {
			break
		}
	}
	if p.occFn != nil {
		p.occFn(n)
	}
	return idx
}

// take claims a slot from the free list, then from the fresh range,
// returning it with its chunk and position, or a nil chunk when both are
// exhausted.
func (p *Pool) take() (int, *chunk, int) {
	for {
		old := p.head.Load()
		gen, ip1 := unpack(old)
		if ip1 != 0 {
			idx := int(ip1 - 1)
			c, i := p.chunk(idx)
			if p.head.CompareAndSwap(old, pack(gen+1, int64(c.next[i].Load()))) {
				return idx, c, i
			}
			continue
		}
		f := p.fresh.Load()
		if f >= int64(p.size) {
			// Exhausted only if no Put landed since the empty head was
			// read: every Put bumps the generation.
			if p.head.Load() == old {
				return None, nil, 0
			}
			continue
		}
		if p.fresh.CompareAndSwap(f, f+1) {
			c, i := p.commit(int(f))
			return int(f), c, i
		}
	}
}

// Put returns a slot to the free list. The caller must own the slot (it must
// have come from Get and not been Put since).
func (p *Pool) Put(idx int) {
	if idx < 0 || idx >= p.size {
		panic("reqpool: Put of invalid index")
	}
	c, i := p.chunk(idx)
	for {
		old := p.head.Load()
		gen, ip1 := unpack(old)
		c.next[i].Store(int32(ip1))
		if p.head.CompareAndSwap(old, pack(gen+1, int64(idx)+1)) {
			p.inUse.Add(-1)
			return
		}
	}
}

// HighWater reports the peak number of simultaneously allocated slots.
func (p *Pool) HighWater() int { return int(p.hwm.Load()) }

// SetOccupancySampler installs an occupancy sampler, invoked with the
// allocated-slot count after each successful Get. The observability layer
// feeds it into an occupancy histogram. Install before traffic; nil
// disables. The sampler must be safe for concurrent callers (Get is
// lock-free and multi-threaded).
func (p *Pool) SetOccupancySampler(fn func(inUse int64)) { p.occFn = fn }

// SetDone marks the slot's operation complete (offload-thread side).
func (p *Pool) SetDone(idx int) {
	c, i := p.chunk(idx)
	c.done[i].Store(1)
}

// Done reports whether the slot's operation has completed (caller side).
func (p *Pool) Done(idx int) bool {
	c, i := p.chunk(idx)
	return c.done[i].Load() != 0
}
