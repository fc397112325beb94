package coll

import (
	"fmt"
	"testing"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/proto"
	"mpioffload/internal/topo"
	"mpioffload/internal/vclock"
)

// runGroupTopo is runGroup over a cluster with rpn ranks per node and an
// explicit topology.
func runGroupTopo(t *testing.T, n, rpn int, spec *topo.Spec, body func(tk *vclock.Task, e *proto.Engine, g Group)) {
	t.Helper()
	p := model.Endeavor()
	p.RanksPerNode = rpn
	p.Topo = spec
	k := vclock.NewKernel()
	f := fabric.New(k, p, n)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	for i := 0; i < n; i++ {
		e := proto.NewEngine(k, f, p, i)
		g := Group{Ranks: ranks, Me: i, Comm: 0, Nodes: f.Nodes()}
		k.Go(fmt.Sprintf("rank%d", i), func(tk *vclock.Task) { body(tk, e, g) })
	}
	k.Run()
}

func fatTree(arity int, oversub float64) *topo.Spec {
	return &topo.Spec{Kind: topo.FatTree, Arity: arity, Oversub: oversub}
}

// TestAllreduceHierMatchesAllreduce checks result equivalence against the
// recursive-doubling baseline across group sizes and ranks-per-node,
// including layouts where the node count does not divide the group (the
// leader-based fallback) and slice splits that are ragged across members.
func TestAllreduceHierMatchesAllreduce(t *testing.T) {
	cases := []struct{ n, rpn int }{
		{4, 2}, {8, 2}, {8, 4}, {16, 4}, // uniform layouts
		{5, 2}, {7, 3}, {9, 4}, // last node under-full → leader fallback
		{6, 8}, // single node: pure intra-node
	}
	for _, tc := range cases {
		for _, elems := range []int{8, 37, 256} { // 37 forces ragged slices
			tc, elems := tc, elems
			t.Run(fmt.Sprintf("n=%d rpn=%d elems=%d", tc.n, tc.rpn, elems), func(t *testing.T) {
				results := make([][]float64, tc.n)
				runGroupTopo(t, tc.n, tc.rpn, fatTree(4, 2), func(tk *vclock.Task, e *proto.Engine, g Group) {
					vals := make([]float64, elems)
					for i := range vals {
						vals[i] = float64((g.Me + 1) * (i + 1)) // exactly summable
					}
					buf := f64bytes(vals...)
					s := IallreduceHier(tk, e, g, buf, sumF64, 77)
					e.WaitAll(tk, s)
					results[g.Me] = bytesF64(buf)
				})
				rankSum := float64(tc.n * (tc.n + 1) / 2)
				for r := 0; r < tc.n; r++ {
					for i, got := range results[r] {
						if want := rankSum * float64(i+1); got != want {
							t.Fatalf("rank %d elem %d: got %v want %v", r, i, got, want)
						}
					}
				}
			})
		}
	}
}

// TestAllreduceHierBeatsRingWhenOversubscribed is the headline performance
// claim: on ≥4 nodes of a 2:1-oversubscribed fat-tree, the hierarchical
// allreduce finishes a ≥1 MiB buffer in less virtual time than the flat
// ring, which crosses the network once per rank instead of once per node.
func TestAllreduceHierBeatsRingWhenOversubscribed(t *testing.T) {
	const n, rpn = 32, 2 // 16 nodes, the Endeavor ranks-per-node default
	const bytes = 1 << 20
	elapsed := func(algo func(tk *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched) vclock.Time {
		var end vclock.Time
		runGroupTopo(t, n, rpn, fatTree(4, 2), func(tk *vclock.Task, e *proto.Engine, g Group) {
			buf := make([]byte, bytes)
			s := algo(tk, e, g, buf, func(d, s []byte) {}, 9)
			e.WaitAll(tk, s)
			if tk.Now() > end {
				end = tk.Now()
			}
		})
		return end
	}
	ring := elapsed(IallreduceRing)
	hier := elapsed(IallreduceHier)
	if hier >= ring {
		t.Fatalf("hierarchical allreduce (%d ns) not faster than flat ring (%d ns)", hier, ring)
	}
	t.Logf("1 MiB allreduce on 8 nodes × 4 ranks (fat-tree 2:1): ring %d ns, hier %d ns (%.2fx)",
		ring, hier, float64(ring)/float64(hier))
}

// TestAllreduceAutoPicksHier checks the topology-consulting selection: hier
// under an explicit topology for large multi-node groups, ring otherwise.
func TestAllreduceAutoPicksHier(t *testing.T) {
	runGroupTopo(t, 8, 2, fatTree(4, 2), func(tk *vclock.Task, e *proto.Engine, g Group) {
		big := make([]byte, RingThreshold)
		s := IallreduceAuto(tk, e, g, big, func(d, s []byte) {}, 1)
		if s.name != "allreduce-hier" {
			t.Errorf("topology + large payload should pick hier, got %s", s.name)
		}
		e.WaitAll(tk, s)
		small := make([]byte, 64)
		s2 := IallreduceAuto(tk, e, g, small, func(d, s []byte) {}, 2)
		if s2.name != "allreduce" {
			t.Errorf("small payload should stay recursive doubling, got %s", s2.name)
		}
		e.WaitAll(tk, s2)
		s3 := IallreduceAutoN(tk, e, g, RingThreshold, 3)
		if s3.name != "allreduce-hier" {
			t.Errorf("phantom topology + large payload should pick hier, got %s", s3.name)
		}
		e.WaitAll(tk, s3)
	})
	// Flat fabric: selection must be byte-for-byte the historical one.
	runGroup(t, 8, func(tk *vclock.Task, e *proto.Engine, g Group) {
		big := make([]byte, RingThreshold)
		s := IallreduceAuto(tk, e, g, big, func(d, s []byte) {}, 1)
		if s.name != "allreduce-ring" {
			t.Errorf("flat fabric should keep the ring, got %s", s.name)
		}
		e.WaitAll(tk, s)
	})
}

// TestPhantomMatchesDataVariantTiming: a phantom payload runs the same
// schedule as the data one and moves the same bytes through the same
// phases, so for a payload whose every split lands on whole 8-byte
// elements (data splits round to them, phantom splits do not) both finish
// at the same virtual time on every rank — for recursive doubling and for
// each hierarchical shape.
func TestPhantomMatchesDataVariantTiming(t *testing.T) {
	rd := func(tk *vclock.Task, e *proto.Engine, g Group, p payload) *Sched {
		return iallreduce(tk, e, g, p, func(d, s []byte) {}, 5)
	}
	hier := func(tk *vclock.Task, e *proto.Engine, g Group, p payload) *Sched {
		return iallreduceHier(tk, e, g, p, func(d, s []byte) {}, 5)
	}
	cases := []struct {
		name   string
		n, rpn int
		bytes  int
		algo   func(tk *vclock.Task, e *proto.Engine, g Group, p payload) *Sched
	}{
		{"recursive-doubling", 6, 2, 256 << 10, rd},
		{"hier-uniform", 8, 2, 256 << 10, hier},
		{"hier-uniform-chunked", 8, 2, 2 << 20, hier},
		{"hier-uniform-rpn4", 8, 4, 1 << 20, hier},
		{"hier-leader", 7, 3, 768 << 10, hier}, // 3 leaders: 768 KiB splits evenly
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(phantom bool) []vclock.Time {
				ends := make([]vclock.Time, tc.n)
				runGroupTopo(t, tc.n, tc.rpn, fatTree(4, 2), func(tk *vclock.Task, e *proto.Engine, g Group) {
					p := payload{n: tc.bytes}
					if !phantom {
						p = pay(make([]byte, tc.bytes))
					}
					e.WaitAll(tk, tc.algo(tk, e, g, p))
					ends[g.Me] = tk.Now()
				})
				return ends
			}
			data, ph := run(false), run(true)
			for r := range data {
				if data[r] != ph[r] {
					t.Fatalf("rank %d: data variant ends at %d, phantom at %d", r, data[r], ph[r])
				}
			}
		})
	}
}
