package coll

// Topology-aware hierarchical allreduce.
//
// IallreduceHier exploits the node structure the fabric exposes: combine
// contributions inside each node over the cheap shared-memory transport
// first, cross the network once per node (not once per rank), then fan
// the result back out locally. Two shapes:
//
//   - Uniform layouts (every node hosts the same number of group members,
//     m): slice-parallel. An intra-node ring reduce-scatter leaves local
//     member li owning the node-reduced slice li; the li-th members of
//     all nodes then run m concurrent inter-node ring allreduces, one per
//     slice (disjoint rank pairs, so every node NIC carries traffic);
//     an intra-node ring allgather recombines the slices. Inter-node
//     bytes per node: 2·(L-1)/L of the buffer — the bandwidth-optimal
//     minimum — moved in 2(L-1) rounds instead of the flat ring's
//     2(n-1).
//   - Irregular layouts (nodes host different member counts): leader-
//     based. Binomial-reduce onto each node's leader over shm, ring-
//     allreduce the full buffer among leaders, binomial-bcast back.
//
// The schedules run on the same phase machinery as every other
// collective, so they progress (and overlap) through whatever progress
// engine the approach provides — the offload thread being the point of
// the paper.

import (
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// nodeLayout is a group's node placement, derived from the fabric's
// rank→node map. Node indices are dense, in order of first appearance
// while scanning group ranks — deterministic for a given group.
type nodeLayout struct {
	members [][]int // dense node index → group ranks hosted there (ascending)
	nodeIdx []int   // group rank → dense node index
	myNode  int     // my dense node index
	myLocal int     // my position within members[myNode]
	uniform bool    // every node hosts the same member count
}

func layoutOf(e *proto.Engine, g Group) nodeLayout {
	lay := nodeLayout{nodeIdx: make([]int, g.Size())}
	seen := make(map[int]int) // physical node → dense index
	for i, r := range g.Ranks {
		phys := e.F.NodeOf(r)
		di, ok := seen[phys]
		if !ok {
			di = len(lay.members)
			seen[phys] = di
			lay.members = append(lay.members, nil)
		}
		lay.nodeIdx[i] = di
		lay.members[di] = append(lay.members[di], i)
	}
	lay.uniform = true
	for _, m := range lay.members {
		if len(m) != len(lay.members[0]) {
			lay.uniform = false
			break
		}
	}
	lay.myNode = lay.nodeIdx[g.Me]
	for li, gr := range lay.members[lay.myNode] {
		if gr == g.Me {
			lay.myLocal = li
			break
		}
	}
	return lay
}

// hierEligible decides whether the topology-consulting auto selection
// picks the hierarchical algorithm: only under an explicit (non-flat)
// topology, for bandwidth-bound sizes, when the group spans several nodes
// with intra-node parallelism to exploit. Everything else keeps the flat
// algorithms — and their historical timelines — untouched.
func hierEligible(e *proto.Engine, g Group, n int) bool {
	if !e.F.Hierarchical() || n < RingThreshold || g.Size() <= 2 {
		return false
	}
	lay := layoutOf(e, g)
	return len(lay.members) >= 2 && g.Size() > len(lay.members)
}

// hierChunkBytes is the pipelining granularity of the hierarchical
// allreduce: buffers are cut into up to hierChunkMax chunks of roughly
// this size, each an independent schedule, so one chunk's intra-node
// phases (shared memory) overlap another's inter-node phase (network).
// Without the pipeline the three phases serialize and the shm legs land
// on the critical path.
const (
	hierChunkBytes = 512 << 10
	hierChunkMax   = 4
)

// hierChunks picks the pipeline depth for an n-byte buffer on a layout
// with m members per node. Pipelining pays only while the node uplink has
// slack per round: with two members the inter-node phase is latency-lean
// and chunks interleave cleanly, while at higher member counts every
// round already queues m flows on the uplink and extra chunks just
// multiply latency-bound rounds — measured slower than the serial
// schedule, so those layouts stay unpipelined.
func hierChunks(n, m int) int {
	if m > 2 {
		return 1
	}
	k := n / hierChunkBytes
	if k < 1 {
		return 1
	}
	if k > hierChunkMax {
		return hierChunkMax
	}
	return k
}

// chunkTag derives the i-th chunk's tag. Collective tags are small
// sequence numbers (mpi allocates them from a per-comm counter), so
// offsetting by a high bit cannot collide with another collective in
// flight on the same communicator.
func chunkTag(tag, i int) int { return tag + (i+1)<<20 }

// gate is a local completion marker used to stagger pipelined chunks:
// chunk i+1's schedule begins with a phase that waits on chunk i's gate,
// which opens when chunk i leaves the intra-node reduce-scatter. Without
// the stagger every chunk enters the same phase at the same time and the
// pipeline degenerates into the serial schedule with extra per-message
// costs.
type gate struct{ open bool }

func (g *gate) Done() bool { return g.open }

// stagePipeline rewires a chunk's phase list for pipelining: it opens my
// gate (bumping the engine so waiters re-step) after phase aEnd, and
// prepends a wait on the previous chunk's gate.
func stagePipeline(c ctx, phases []Phase, aEnd int, mine, prev *gate) []Phase {
	after := phases[aEnd].After
	phases[aEnd].After = func(t *vclock.Task) {
		if after != nil {
			after(t)
		}
		mine.open = true
		c.e.Bump()
	}
	if prev == nil {
		return phases
	}
	wait := Phase{Post: func(t *vclock.Task) []proto.Req {
		return []proto.Req{prev}
	}}
	return append([]Phase{wait}, phases...)
}

// IallreduceHier starts the hierarchical allreduce on buf (in place on
// all ranks). len(buf) must be a multiple of the 8-byte reduce element.
func IallreduceHier(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched {
	if len(buf)%reduceElem != 0 {
		panic("coll: hierarchical allreduce needs an 8-byte-aligned buffer")
	}
	return iallreduceHier(t, e, g, pay(buf), op, tag)
}

func iallreduceHier(t *vclock.Task, e *proto.Engine, g Group, p payload, op Combine, tag int) *Sched {
	var phases []Phase
	if g.Size() > 1 {
		lay := layoutOf(e, g)
		m := len(lay.members[lay.myNode])
		if !lay.uniform {
			phases = hierLeaderPhases(newCtx(e, g, tag), lay, p, op)
		} else if k := hierChunks(p.n, m); k == 1 || len(lay.members) == 1 || m == 1 {
			phases = hierUniformPhases(newCtx(e, g, tag), lay, p, op)
		} else {
			// Pipeline: each chunk is its own schedule on its own tag,
			// staggered so chunk i+1's shm phase overlaps chunk i's
			// network phase; the parent completes when every chunk does.
			phases = []Phase{{Post: func(t *vclock.Task) []proto.Req {
				reqs := make([]proto.Req, k)
				var prev *gate
				for i := 0; i < k; i++ {
					cc := newCtx(e, g, chunkTag(tag, i))
					mine := &gate{}
					ch := stagePipeline(cc, hierUniformPhases(cc, lay, p.split(i, k), op), m-2, mine, prev)
					reqs[i] = start(t, e, "allreduce-hier-chunk", ch)
					prev = mine
				}
				return reqs
			}}}
		}
	}
	return start(t, e, "allreduce-hier", phases)
}

// hierUniformPhases builds the slice-parallel schedule (uniform layouts).
func hierUniformPhases(c ctx, lay nodeLayout, p payload, op Combine) []Phase {
	local := lay.members[lay.myNode]
	m, li := len(local), lay.myLocal
	slice := func(b int) payload { return p.split(b, m) }
	// Phase A: shifted-ring reduce-scatter over shm; after m-1 steps
	// member li owns the node-reduced slice li.
	phases := ringReduceScatterPhases(c, li, local, slice, op, nil)
	// Phase B: m concurrent inter-node ring allreduces, one per slice,
	// among the li-th members of every node.
	if L := len(lay.members); L > 1 {
		peers := make([]int, L)
		for ni := range peers {
			peers[ni] = lay.members[ni][li]
		}
		phases = ringAllreducePhases(c, lay.myNode, peers, slice(li), op, phases)
	}
	// Phase C: ring allgather of the reduced slices over shm.
	return ringAllgatherPhases(c, li, local, slice, phases)
}

// hierLeaderPhases builds the leader-based schedule (irregular layouts):
// the whole payload moves through each node's leader, which is not
// bandwidth-optimal but correct for any member split.
func hierLeaderPhases(c ctx, lay nodeLayout, p payload, op Combine) []Phase {
	local := lay.members[lay.myNode]
	li := lay.myLocal
	phases := binomialReducePhases(c, li, local, p, op, nil)
	if L := len(lay.members); L > 1 && li == 0 {
		leaders := make([]int, L)
		for ni := range lay.members {
			leaders[ni] = lay.members[ni][0]
		}
		phases = ringAllreducePhases(c, lay.myNode, leaders, p, op, phases)
	}
	return binomialBcastPhases(c, li, local, p, phases)
}
