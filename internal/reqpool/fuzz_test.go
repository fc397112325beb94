package reqpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// casOwner atomically flips a slot's ownership marker, failing loudly when
// two goroutines believe they own the same slot.
func casOwner(owner []int32, idx int, old, new int32) bool {
	return atomic.CompareAndSwapInt32(&owner[idx], old, new)
}

// FuzzPoolInterleaving model-checks the request pool under fuzz-chosen
// Get/Put/SetDone interleavings from several simulated threads. Invariants
// mirror what the offload infrastructure relies on: Get never hands out a
// slot that is already allocated (no double allocation), occupancy
// accounting balances, and done flags are fresh on reallocation.
func FuzzPoolInterleaving(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 2, 0, 1}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1}, uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(6))
	f.Fuzz(func(t *testing.T, script []byte, sizeSel uint8) {
		size := int(sizeSel%8) + 1
		p := New(size)
		held := make(map[int]bool, size) // slots currently allocated
		var order []int                  // allocation order, for scripted Puts
		for _, b := range script {
			switch b % 3 {
			case 0: // Get
				idx := p.Get()
				if idx == None {
					if len(held) != size {
						t.Fatalf("pool exhausted with %d/%d held", len(held), size)
					}
					continue
				}
				if idx < 0 || idx >= size {
					t.Fatalf("Get returned out-of-range slot %d", idx)
				}
				if held[idx] {
					t.Fatalf("slot %d double-allocated", idx)
				}
				if p.Done(idx) {
					t.Fatalf("slot %d handed out with stale done flag", idx)
				}
				held[idx] = true
				order = append(order, idx)
			case 1: // Put the oldest held slot
				if len(order) == 0 {
					continue
				}
				idx := order[0]
				order = order[1:]
				delete(held, idx)
				p.Put(idx)
			case 2: // SetDone on the newest held slot
				if len(order) == 0 {
					continue
				}
				idx := order[len(order)-1]
				p.SetDone(idx)
				if !p.Done(idx) {
					t.Fatalf("done flag of slot %d not observable", idx)
				}
			}
		}
		if got, want := int(p.inUse.Load()), len(held); got != want {
			t.Fatalf("%d slots in use, want %d", got, want)
		}
		if hw := p.HighWater(); hw > size {
			t.Fatalf("high-water mark %d exceeds pool size %d", hw, size)
		}
		if got, want := drain(p), size-len(held); got != want {
			t.Fatalf("%d slots left to hand out, want %d", got, want)
		}
	})
}

// FuzzPoolConcurrent exercises Get/Put from real goroutines (sized by the
// fuzz input) with an ownership array that detects double allocation the
// instant it happens. Run under -race in CI, it also probes the Treiber
// free list's ABA defenses and the fresh-index path: the workers start
// together, so their first Gets race to advance the never-used counter and
// to commit its chunks, and every slot it passed must have been handed out.
func FuzzPoolConcurrent(f *testing.F) {
	f.Add(uint8(4), uint16(500), uint8(8))
	f.Add(uint8(2), uint16(1000), uint8(2))
	f.Add(uint8(8), uint16(200), uint8(16))
	f.Add(uint8(7), uint16(300), uint8(255)) // 8 workers over 256 slots: fresh-heavy
	f.Fuzz(func(t *testing.T, nw uint8, per uint16, sizeSel uint8) {
		workers := int(nw%8) + 1
		iters := int(per%2048) + 1
		size := int(sizeSel) + 1
		p := New(size)

		owner := make([]int32, size)
		used := make([]atomic.Bool, size) // slots handed out at least once
		start := make(chan struct{})
		var mu sync.Mutex // guards only the failure report
		var failure string
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				held := make([]int, 0, 4)
				for i := 0; i < iters; i++ {
					if idx := p.Get(); idx != None {
						used[idx].Store(true)
						if !casOwner(owner, idx, 0, 1) {
							mu.Lock()
							failure = "double allocation detected"
							mu.Unlock()
							return
						}
						held = append(held, idx)
					}
					if len(held) > 2 || (len(held) > 0 && i%3 == 0) {
						idx := held[len(held)-1]
						held = held[:len(held)-1]
						if !casOwner(owner, idx, 1, 0) {
							mu.Lock()
							failure = "released a slot not owned"
							mu.Unlock()
							return
						}
						p.Put(idx)
					}
				}
				for _, idx := range held {
					casOwner(owner, idx, 1, 0)
					p.Put(idx)
				}
			}()
		}
		close(start)
		wg.Wait()
		if failure != "" {
			t.Fatal(failure)
		}
		fresh := int(p.fresh.Load())
		if fresh < 1 || fresh > size {
			t.Fatalf("fresh index %d outside [1, %d]", fresh, size)
		}
		for idx := range used {
			if used[idx].Load() != (idx < fresh) {
				t.Fatalf("slot %d handed out = %v with fresh index %d", idx, used[idx].Load(), fresh)
			}
		}
		if got := p.inUse.Load(); got != 0 {
			t.Fatalf("%d slots in use after full release, want 0", got)
		}
		if got := drain(p); got != size {
			t.Fatalf("%d slots left to hand out after full release, want %d", got, size)
		}
	})
}
