package reqpool

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestGetAllThenExhaust(t *testing.T) {
	p := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		idx := p.Get()
		if idx == None {
			t.Fatalf("pool exhausted after %d", i)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	if p.Get() != None {
		t.Fatal("expected exhaustion")
	}
}

// drain takes every slot the pool still hands out and reports how many:
// its free count, observed through Get alone.
func drain(p *Pool) int {
	n := 0
	for p.Get() != None {
		n++
	}
	return n
}

func TestPutRestores(t *testing.T) {
	p := New(3)
	a, b, c := p.Get(), p.Get(), p.Get()
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatalf("LIFO violated: got %d want %d", got, b)
	}
	p.Put(a)
	p.Put(b)
	p.Put(c)
	if n := drain(p); n != 3 {
		t.Fatalf("free count %d, want 3", n)
	}
}

func TestDoneFlagLifecycle(t *testing.T) {
	p := New(2)
	idx := p.Get()
	if p.Done(idx) {
		t.Fatal("fresh slot already done")
	}
	p.SetDone(idx)
	if !p.Done(idx) {
		t.Fatal("done flag not set")
	}
	p.Put(idx)
	idx2 := p.Get()
	if idx2 != idx {
		t.Fatalf("expected recycled slot %d, got %d", idx, idx2)
	}
	if p.Done(idx2) {
		t.Fatal("done flag not reset on reuse")
	}
}

func TestPutInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Put(7)
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	New(0)
}

// TestConcurrentUniqueOwnership checks under real goroutine concurrency that
// no index is ever owned by two goroutines at once.
func TestConcurrentUniqueOwnership(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers = 8
	const iters = 20000
	p := New(workers * 2)
	owners := make([]int32, p.Size())
	var mu sync.Mutex
	violations := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]int, 0, 2)
			for i := 0; i < iters; i++ {
				if len(held) < 2 {
					if idx := p.Get(); idx != None {
						// Claim ownership; any concurrent claim is a bug.
						o := owners[idx]
						owners[idx] = o + 1
						if o != 0 {
							mu.Lock()
							violations++
							mu.Unlock()
						}
						held = append(held, idx)
						continue
					}
				}
				if len(held) > 0 {
					idx := held[len(held)-1]
					held = held[:len(held)-1]
					owners[idx]--
					p.Put(idx)
				}
			}
			for _, idx := range held {
				owners[idx]--
				p.Put(idx)
			}
		}()
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d double-ownership violations", violations)
	}
	if got := drain(p); got != p.Size() {
		t.Fatalf("free count %d, want %d", got, p.Size())
	}
}

// TestQuickGetPutConservation: any interleaving of Gets and Puts conserves
// slots — outstanding + free == size.
func TestQuickGetPutConservation(t *testing.T) {
	f := func(ops []bool) bool {
		p := New(6)
		var held []int
		for _, get := range ops {
			if get {
				idx := p.Get()
				if idx == None {
					if len(held) != p.Size() {
						return false
					}
					continue
				}
				for _, h := range held {
					if h == idx {
						return false // duplicate
					}
				}
				held = append(held, idx)
			} else if len(held) > 0 {
				p.Put(held[0])
				held = held[1:]
			}
		}
		return drain(p) == p.Size()-len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHandOutMatchesPrechainedList pins handle identity: over seeded random
// Get/Put sequences the pool hands out exactly the slots a free list
// chained 0 -> 1 -> ... -> n-1 at construction would, with Put pushing on
// top, including None at exactly size outstanding. Sizes span several
// chunks so fresh hand-outs cross chunk boundaries.
func TestHandOutMatchesPrechainedList(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(3*chunkLen)
		p := New(size)
		model := make([]int, size) // the old free list, top at the end
		for i := range model {
			model[i] = size - 1 - i
		}
		var held []int
		exhausted := 0
		for step := 0; step < 4*size+50; step++ {
			if len(held) == 0 || rng.Intn(5) < 4 {
				want := None
				if n := len(model); n > 0 {
					want, model = model[n-1], model[:n-1]
				}
				if got := p.Get(); got != want {
					t.Fatalf("seed %d size %d step %d: Get = %d, want %d (%d held)",
						seed, size, step, got, want, len(held))
				}
				if want == None {
					exhausted++
				} else {
					held = append(held, want)
				}
				continue
			}
			i := rng.Intn(len(held))
			idx := held[i]
			held = append(held[:i], held[i+1:]...)
			p.Put(idx)
			model = append(model, idx)
		}
		if got := drain(p); got != len(model) {
			t.Fatalf("seed %d: %d slots left to hand out, want %d", seed, got, len(model))
		}
		if exhausted == 0 {
			t.Fatalf("seed %d: the sequence never exhausted the pool", seed)
		}
	}
}

func BenchmarkGetPut(b *testing.B) {
	p := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := p.Get()
		p.Put(idx)
	}
}

func BenchmarkGetPutContended(b *testing.B) {
	p := New(4096)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if idx := p.Get(); idx != None {
				p.Put(idx)
			}
		}
	})
}
