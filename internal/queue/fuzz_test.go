package queue

import (
	"sync"
	"testing"
)

// FuzzMPMCInterleaving model-checks the MPMC queue against a reference
// FIFO under fuzz-chosen producer/consumer interleavings. Each script byte
// picks which actor moves next, so the fuzzer explores arbitrary schedules
// deterministically; the invariants are exactly MPI's requirements of the
// command queue — no command lost, none duplicated, FIFO order preserved.
func FuzzMPMCInterleaving(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(2), uint8(2), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1}, uint8(1), uint8(1), uint8(1))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0}, uint8(3), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, script []byte, np, nc, capLog uint8) {
		producers := int(np%4) + 1
		consumers := int(nc%4) + 1
		capacity := 1 << (capLog%5 + 1)
		q := NewMPMC[int](capacity)

		var golden []int // reference FIFO of successfully enqueued values
		next := make([]int, producers)
		dequeued := 0
		for _, b := range script {
			actor := int(b) % (producers + consumers)
			if actor < producers {
				v := actor<<20 | next[actor]
				if q.TryEnqueue(v) {
					golden = append(golden, v)
					next[actor]++
				} else if len(golden)-dequeued < capacity {
					t.Fatalf("enqueue refused with %d/%d used",
						len(golden)-dequeued, capacity)
				}
			} else {
				v, ok := q.TryDequeue()
				if !ok {
					if len(golden) != dequeued {
						t.Fatalf("dequeue empty with %d elements pending",
							len(golden)-dequeued)
					}
					continue
				}
				if dequeued >= len(golden) {
					t.Fatalf("dequeued %d values but only %d were enqueued (duplicate?)",
						dequeued+1, len(golden))
				}
				if want := golden[dequeued]; v != want {
					t.Fatalf("dequeue %d returned %#x, want %#x (FIFO violated)",
						dequeued, v, want)
				}
				dequeued++
			}
		}
		// Drain: everything enqueued must come out, in order, exactly once.
		for dequeued < len(golden) {
			v, ok := q.TryDequeue()
			if !ok {
				t.Fatalf("queue empty with %d elements lost", len(golden)-dequeued)
			}
			if want := golden[dequeued]; v != want {
				t.Fatalf("drain %d returned %#x, want %#x", dequeued, v, want)
			}
			dequeued++
		}
		if _, ok := q.TryDequeue(); ok {
			t.Fatal("queue produced a value beyond everything enqueued")
		}
	})
}

// FuzzShardedInterleaving model-checks the sharded command queue against
// per-producer reference FIFOs under fuzz-chosen interleavings. Producers
// beyond the shard count land in the overflow shard, so the model covers
// both the private-SPSC and the shared-MPMC paths; the invariants are what
// MPI requires of the submission path — no command lost, none duplicated,
// each producer's order preserved.
func FuzzShardedInterleaving(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4}, uint8(3), uint8(2), uint8(3))
	f.Add([]byte{0, 0, 0, 0, 5, 5, 5, 5}, uint8(1), uint8(1), uint8(1))
	f.Add([]byte{6, 5, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 0}, uint8(4), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, script []byte, np, ns, capLog uint8) {
		producers := int(np%6) + 1
		shardCount := int(ns%4) + 1
		capacity := 1 << (capLog%5 + 1)
		q := NewSharded[int](shardCount, capacity, capacity)

		shard := make([]int, producers)
		for p := range shard {
			shard[p] = q.Register() // beyond shardCount: Overflow
		}
		golden := make([][]int, producers) // per-producer reference FIFOs
		next := make([]int, producers)
		pos := make([]int, producers) // next expected index into golden[p]
		pending := 0
		var one [1]int
		for _, b := range script {
			actor := int(b) % (producers + 1)
			if actor < producers {
				v := actor<<20 | next[actor]
				if q.TryEnqueue(shard[actor], v) {
					golden[actor] = append(golden[actor], v)
					next[actor]++
					pending++
				}
				continue
			}
			ok, v := q.DequeueBatch(one[:]) == 1, one[0]
			if !ok {
				if pending != 0 {
					t.Fatalf("dequeue empty with %d elements pending", pending)
				}
				continue
			}
			p := v >> 20
			if pos[p] >= len(golden[p]) {
				t.Fatalf("producer %d over-delivered (duplicate?)", p)
			}
			if want := golden[p][pos[p]]; v != want {
				t.Fatalf("producer %d: got %#x, want %#x (FIFO violated)", p, v, want)
			}
			pos[p]++
			pending--
		}
		// Drain: everything enqueued must come out exactly once, in
		// per-producer order.
		for pending > 0 {
			ok, v := q.DequeueBatch(one[:]) == 1, one[0]
			if !ok {
				t.Fatalf("queue empty with %d elements lost", pending)
			}
			p := v >> 20
			if pos[p] >= len(golden[p]) || golden[p][pos[p]] != v {
				t.Fatalf("drain: producer %d got %#x out of order", p, v)
			}
			pos[p]++
			pending--
		}
		if q.DequeueBatch(one[:]) != 0 {
			t.Fatal("queue produced a value beyond everything enqueued")
		}
		if q.Len() != 0 || !q.Empty() {
			t.Fatalf("drained queue reports Len=%d", q.Len())
		}
	})
}

// FuzzMPMCConcurrent hammers the queue with real goroutines (sized by the
// fuzz input) and verifies no value is lost or duplicated and that each
// producer's values are consumed in that producer's send order (MPI's
// non-overtaking rule). Run under -race in CI (Makefile race target), this
// doubles as a data-race probe of the enqueue/dequeue fast paths.
func FuzzMPMCConcurrent(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint16(256), uint8(4))
	f.Add(uint8(4), uint8(1), uint16(512), uint8(2))
	f.Add(uint8(1), uint8(4), uint16(128), uint8(6))
	f.Fuzz(func(t *testing.T, np uint8, nc uint8, per uint16, capLog uint8) {
		producers := int(np%4) + 1
		consumers := int(nc%4) + 1
		perProducer := int(per%1024) + 1
		capacity := 1 << (capLog%6 + 1)
		q := NewMPMC[int](capacity)
		total := producers * perProducer

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					for !q.TryEnqueue(p<<20 | i) {
					}
				}
			}()
		}
		results := make(chan int, total)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if v, ok := q.TryDequeue(); ok {
						results <- v
					} else if len(results) == total {
						return
					}
				}
			}()
		}
		wg.Wait()
		close(results)

		seen := make(map[int]bool, total)
		lastSeq := make([]int, producers)
		for i := range lastSeq {
			lastSeq[i] = -1
		}
		got := 0
		for v := range results {
			if seen[v] {
				t.Fatalf("value %#x consumed twice", v)
			}
			seen[v] = true
			got++
			p, seq := v>>20, v&(1<<20-1)
			// With one consumer, per-producer FIFO is observable end to
			// end; with several, the channel interleaving no longer
			// preserves it, so only check the single-consumer case.
			if consumers == 1 {
				if seq <= lastSeq[p] {
					t.Fatalf("producer %d seq %d consumed after %d (FIFO violated)",
						p, seq, lastSeq[p])
				}
				lastSeq[p] = seq
			}
		}
		if got != total {
			t.Fatalf("consumed %d values, produced %d (lost %d)", got, total, total-got)
		}
	})
}
