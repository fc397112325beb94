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

func TestReduceScatterBlock(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			outs := make([][]float64, n)
			runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
				// Each rank contributes blocks: block b element = rank+1 + b*10.
				vals := make([]float64, n)
				for b := 0; b < n; b++ {
					vals[b] = float64(g.Me+1) + float64(b*10)
				}
				ob := f64bytes(0)
				s := IreduceScatterBlock(tk, e, g, f64bytes(vals...), ob, sumF64, 3)
				e.WaitAll(tk, s)
				outs[g.Me] = bytesF64(ob)
			})
			rankSum := float64(n*(n+1)) / 2
			for r := 0; r < n; r++ {
				want := rankSum + float64(r*10*n)
				if outs[r][0] != want {
					t.Fatalf("rank %d reduce-scatter block = %v, want %v", r, outs[r][0], want)
				}
			}
		})
	}
}

func TestScanPrefix(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			results := make([]float64, n)
			runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
				buf := f64bytes(float64(g.Me + 1))
				s := IScan(tk, e, g, buf, sumF64, 4)
				e.WaitAll(tk, s)
				results[g.Me] = bytesF64(buf)[0]
			})
			for r := 0; r < n; r++ {
				want := float64((r + 1) * (r + 2) / 2)
				if results[r] != want {
					t.Fatalf("rank %d scan = %v, want %v", r, results[r], want)
				}
			}
		})
	}
}

func TestAlltoallV(t *testing.T) {
	const n = 4
	runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
		// Rank r sends r+1 bytes of value r*16+dst to dst.
		send := make([][]byte, n)
		recv := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			send[dst] = make([]byte, g.Me+1)
			for i := range send[dst] {
				send[dst][i] = byte(g.Me*16 + dst)
			}
			recv[dst] = make([]byte, dst+1)
		}
		s := IalltoallV(tk, e, g, send, recv, 5)
		e.WaitAll(tk, s)
		for src := 0; src < n; src++ {
			if len(recv[src]) != src+1 {
				t.Fatalf("recv size from %d = %d", src, len(recv[src]))
			}
			for _, b := range recv[src] {
				if b != byte(src*16+g.Me) {
					t.Fatalf("rank %d: byte from %d = %d", g.Me, src, b)
				}
			}
		}
	})
}

func TestAllgatherV(t *testing.T) {
	const n = 5
	runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
		block := make([]byte, g.Me+1)
		for i := range block {
			block[i] = byte(g.Me + 100)
		}
		out := make([][]byte, n)
		for r := 0; r < n; r++ {
			out[r] = make([]byte, r+1)
		}
		s := IallgatherV(tk, e, g, block, out, 6)
		e.WaitAll(tk, s)
		for r := 0; r < n; r++ {
			for _, b := range out[r] {
				if b != byte(r+100) {
					t.Fatalf("rank %d: out[%d] byte %d", g.Me, r, b)
				}
			}
		}
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
