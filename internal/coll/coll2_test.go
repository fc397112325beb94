package coll

import (
	"fmt"
	"testing"

	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

func TestAllreduceRingMatchesRecursiveDoubling(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8} {
		for _, elems := range []int{8, 37, 256} { // includes ragged splits
			n, elems := n, elems
			t.Run(fmt.Sprintf("n=%d elems=%d", n, elems), func(t *testing.T) {
				results := make([][]float64, n)
				runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
					vals := make([]float64, elems)
					for i := range vals {
						vals[i] = float64((g.Me+1)*(i+1)) * 0.5
					}
					buf := f64bytes(vals...)
					s := IallreduceRing(tk, e, g, buf, sumF64, 77)
					e.WaitAll(tk, s)
					results[g.Me] = bytesF64(buf)
				})
				// Expected: sum over ranks of (r+1)(i+1)/2.
				rankSum := float64(n*(n+1)) / 2
				for r := 0; r < n; r++ {
					got := results[r]
					for i := range got {
						want := rankSum * float64(i+1) * 0.5
						if diff := got[i] - want; diff > 1e-9 || diff < -1e-9 {
							t.Fatalf("rank %d elem %d: got %v want %v", r, i, got[i], want)
						}
					}
				}
			})
		}
	}
}

func TestIallreduceAutoSwitches(t *testing.T) {
	runGroup(t, 4, func(tk *vclock.Task, e *proto.Engine, g Group) {
		small := make([]byte, 64)
		s := IallreduceAuto(tk, e, g, small, func(d, s []byte) {}, 1)
		if s.name != "allreduce" {
			t.Errorf("small payload should use recursive doubling, got %s", s.name)
		}
		e.WaitAll(tk, s)
		big := make([]byte, RingThreshold)
		s2 := IallreduceAuto(tk, e, g, big, func(d, s []byte) {}, 2)
		if s2.name != "allreduce-ring" {
			t.Errorf("large payload should use ring, got %s", s2.name)
		}
		e.WaitAll(tk, s2)
		// A phantom payload never takes the flat ring: the workload-model
		// figures were recorded with recursive doubling at every size.
		s3 := IallreduceAutoN(tk, e, g, RingThreshold, 3)
		if s3.name != "allreduce" {
			t.Errorf("large phantom payload should stay recursive doubling, got %s", s3.name)
		}
		e.WaitAll(tk, s3)
	})
}

func TestRingAllreduceFasterForLargeBuffers(t *testing.T) {
	// The ring moves 2(n-1)/n of the data; recursive doubling moves
	// log2(n) full copies — the ring must win on big buffers.
	const n = 8
	const bytes = 4 << 20
	timeOf := func(ring bool) vclock.Time {
		var elapsed vclock.Time
		runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
			buf := make([]byte, bytes)
			start := tk.Now()
			var s *Sched
			if ring {
				s = IallreduceRing(tk, e, g, buf, func(d, s []byte) {}, 9)
			} else {
				s = Iallreduce(tk, e, g, buf, func(d, s []byte) {}, 9)
			}
			e.WaitAll(tk, s)
			if g.Me == 0 {
				elapsed = tk.Now() - start
			}
		})
		return elapsed
	}
	rd, ring := timeOf(false), timeOf(true)
	if ring >= rd {
		t.Fatalf("ring (%d ns) should beat recursive doubling (%d ns) at %d bytes", ring, rd, bytes)
	}
}
