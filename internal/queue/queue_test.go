package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestMPMCBasicFIFO(t *testing.T) {
	q := NewMPMC[int](8)
	for i := 0; i < 8; i++ {
		if !q.TryEnqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.TryEnqueue(99) {
		t.Fatal("enqueue into full queue succeeded")
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryDequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
}

func TestMPMCCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}} {
		q, got := NewMPMC[int](tc.in), 0
		for q.TryEnqueue(got) {
			got++
		}
		if got != tc.want {
			t.Errorf("cap(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMPMCWrapAround(t *testing.T) {
	q := NewMPMC[int](4)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			if !q.TryEnqueue(round*10 + i) {
				t.Fatal("enqueue failed")
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryDequeue()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: got %d ok=%v", round, v, ok)
			}
		}
	}
}

func TestMPMCLen(t *testing.T) {
	q := NewMPMC[string](8)
	if q.Len() != 0 || !q.Empty() {
		t.Fatal("new queue not empty")
	}
	q.TryEnqueue("a")
	q.TryEnqueue("b")
	if q.Len() != 2 || q.Empty() {
		t.Fatalf("len=%d", q.Len())
	}
	q.TryDequeue()
	if q.Len() != 1 {
		t.Fatalf("len=%d", q.Len())
	}
}

// TestMPMCConcurrentNoLossNoDup hammers the queue from multiple producers
// and consumers and checks that every value is delivered exactly once and
// that per-producer order is preserved.
func TestMPMCConcurrentNoLossNoDup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const producers, consumers, perProducer = 4, 4, 5000
	q := NewMPMC[[2]int](64)
	var wg sync.WaitGroup
	results := make([][][2]int, consumers)
	for c := 0; c < consumers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			for got < producers*perProducer/consumers {
				if v, ok := q.TryDequeue(); ok {
					results[c] = append(results[c], v)
					got++
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !q.TryEnqueue([2]int{p, i}) {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	seen := make(map[[2]int]bool)
	lastPerProducer := make([]int, producers)
	for i := range lastPerProducer {
		lastPerProducer[i] = -1
	}
	total := 0
	for c := range results {
		perProd := make([]int, producers)
		for i := range perProd {
			perProd[i] = -1
		}
		for _, v := range results[c] {
			if seen[v] {
				t.Fatalf("duplicate delivery %v", v)
			}
			seen[v] = true
			// Per-producer order must be increasing within one consumer.
			if v[1] <= perProd[v[0]] {
				t.Fatalf("per-producer order violated at consumer %d: %v after %d", c, v, perProd[v[0]])
			}
			perProd[v[0]] = v[1]
			total++
		}
	}
	if total != producers*perProducer {
		t.Fatalf("delivered %d, want %d", total, producers*perProducer)
	}
}

// TestMPMCQuickSequentialModel checks the queue against a slice model under
// random sequential operation streams.
func TestMPMCQuickSequentialModel(t *testing.T) {
	f := func(ops []bool, vals []int) bool {
		q := NewMPMC[int](8)
		var model []int
		vi := 0
		for _, enq := range ops {
			if enq {
				v := 0
				if vi < len(vals) {
					v = vals[vi]
					vi++
				}
				ok := q.TryEnqueue(v)
				wantOK := len(model) < 8
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, v)
				}
			} else {
				v, ok := q.TryDequeue()
				wantOK := len(model) > 0
				if ok != wantOK {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	for i := 0; i < 4; i++ {
		if !q.TryEnqueue(i) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if q.TryEnqueue(4) {
		t.Fatal("enqueue into full ring succeeded")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryDequeue()
		if !ok || v != i {
			t.Fatalf("got %d ok=%v", v, ok)
		}
	}
	if _, ok := q.TryDequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestSPSCConcurrentStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 100000
	q := NewSPSC[int](16)
	done := make(chan bool)
	go func() {
		for i := 0; i < n; i++ {
			for !q.TryEnqueue(i) {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		for i := 0; i < n; i++ {
			for {
				v, ok := q.TryDequeue()
				if ok {
					if v != i {
						t.Errorf("got %d want %d", v, i)
						done <- false
						return
					}
					break
				}
				runtime.Gosched()
			}
		}
		done <- true
	}()
	if !<-done {
		t.Fatal("stream corrupted")
	}
}

func BenchmarkMPMCEnqueueDequeue(b *testing.B) {
	q := NewMPMC[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(uint64(i))
		q.TryDequeue()
	}
}

func BenchmarkMPMCEnqueueOnly(b *testing.B) {
	// The application-side cost of an offloaded MPI call is one enqueue:
	// this is the real-hardware analogue of the paper's ~140 ns Isend
	// post cost (Fig 4, offload curve).
	q := NewMPMC[uint64](1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !q.TryEnqueue(uint64(i)) {
			b.StopTimer()
			for !q.Empty() {
				q.TryDequeue()
			}
			b.StartTimer()
		}
	}
}

func BenchmarkMPMCContended(b *testing.B) {
	q := NewMPMC[uint64](1 << 12)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !q.TryEnqueue(1) {
				q.TryDequeue()
			}
		}
	})
}

func BenchmarkSPSCEnqueueDequeue(b *testing.B) {
	q := NewSPSC[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(uint64(i))
		q.TryDequeue()
	}
}
