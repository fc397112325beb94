package coll

import (
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// RingThreshold is the payload size above which Iallreduce switches from
// recursive doubling (latency-optimal, log n rounds of the full buffer) to
// the ring algorithm (bandwidth-optimal, 2(n-1) rounds of 1/n blocks) —
// the standard large-message choice in production MPI implementations.
const RingThreshold = 64 << 10

// reduceElem is the element granularity ring splits respect so that the
// Combine operator always sees whole elements (all the typed operators in
// package mpi work on 8-byte words; complex128 is two of them).
const reduceElem = 8

// IallreduceAuto picks the allreduce algorithm by message size.
func IallreduceAuto(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched {
	return iallreduceAuto(t, e, g, pay(buf), op, tag)
}

// IallreduceAutoN is the phantom entry point (mpi.IallreduceBytes): an
// n-byte payload that carries no data, selected as iallreduceAuto says.
func IallreduceAutoN(t *vclock.Task, e *proto.Engine, g Group, n, tag int) *Sched {
	return iallreduceAuto(t, e, g, payload{n: n}, nil, tag)
}

// iallreduceAuto: the ring for large aligned data, else recursive
// doubling. Phantoms never take the ring: a phantom at or above
// RingThreshold runs recursive doubling, the choice the workload-model
// figures were recorded with.
func iallreduceAuto(t *vclock.Task, e *proto.Engine, g Group, p payload, op Combine, tag int) *Sched {
	if p.data != nil && p.n%reduceElem == 0 && p.n >= RingThreshold && g.Size() > 2 {
		return IallreduceRing(t, e, g, p.data, op, tag)
	}
	return iallreduce(t, e, g, p, op, tag)
}

// IallreduceRing is the bandwidth-optimal ring allreduce: a reduce-scatter
// phase (n-1 steps) followed by an allgather phase (n-1 steps), moving
// 2·(n-1)/n of the buffer per rank in total. len(buf) must be a multiple
// of the 8-byte reduce element.
func IallreduceRing(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched {
	if len(buf)%reduceElem != 0 {
		panic("coll: ring allreduce needs an 8-byte-aligned buffer")
	}
	phases := ringAllreducePhases(newCtx(e, g, tag), g.Me, rotated(g.Size(), 0), pay(buf), op, nil)
	return start(t, e, "allreduce-ring", phases)
}
