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

// IallreduceAuto picks the allreduce algorithm by message size and — when
// the fabric carries an explicit topology — by the group's node layout.
func IallreduceAuto(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched {
	return iallreduceAuto(t, e, g, pay(buf), op, tag)
}

// IallreduceAutoN is the phantom entry point (mpi.IallreduceBytes): an
// n-byte payload that carries no data, selected as iallreduceAuto says.
func IallreduceAutoN(t *vclock.Task, e *proto.Engine, g Group, n, tag int) *Sched {
	return iallreduceAuto(t, e, g, payload{n: n}, nil, tag)
}

// iallreduceAuto: the hierarchical schedule when hierEligible, else the
// ring for large aligned data, else recursive doubling. Phantom splits are
// bytewise, so phantoms skip the alignment check — and they never take the
// flat ring: a phantom at or above RingThreshold on a flat fabric runs
// recursive doubling, the choice the workload-model figures were recorded
// with.
func iallreduceAuto(t *vclock.Task, e *proto.Engine, g Group, p payload, op Combine, tag int) *Sched {
	aligned := p.data == nil || p.n%reduceElem == 0
	if aligned && hierEligible(e, g, p.n) {
		return iallreduceHier(t, e, g, p, op, tag)
	}
	if p.data != nil && aligned && p.n >= RingThreshold && g.Size() > 2 {
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

// IreduceScatterBlock reduces equal blocks across the group and leaves
// rank r with the reduced block r in out (len(out) = len(buf)/n).
func IreduceScatterBlock(t *vclock.Task, e *proto.Engine, g Group, buf, out []byte, op Combine, tag int) *Sched {
	n := g.Size()
	bs := len(buf) / n
	block := func(b int) payload { return pay(buf[b*bs : (b+1)*bs]) }
	phases := ringReduceScatterPhases(newCtx(e, g, tag), g.Me, rotated(n, 0), block, op, nil)
	phases = append(phases, copyPhase(e, out, block(g.Me).data))
	return start(t, e, "reduce-scatter", phases)
}

// IScan computes the inclusive prefix reduction: rank r's buf becomes
// op(buf₀, …, buf_r). Linear chain (each rank combines its predecessor's
// prefix, then forwards its own).
func IScan(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched {
	c := newCtx(e, g, tag)
	n := g.Size()
	me := g.Me
	var phases []Phase
	if me > 0 {
		tmp := make([]byte, len(buf))
		phases = append(phases, Phase{
			Post: func(t *vclock.Task) []proto.Req {
				return []proto.Req{c.recv(t, pay(tmp), me-1)}
			},
			After: func(t *vclock.Task) {
				t.SleepF(e.P.CopyTime(len(buf)))
				// buf = prefix(pred) ⊕ mine, preserving operand order.
				op(tmp, buf)
				copy(buf, tmp)
			},
		})
	}
	if me < n-1 {
		phases = append(phases, c.sendPhase(pay(buf), me+1))
	}
	return start(t, e, "scan", phases)
}

// IalltoallV is the variable-size all-to-all: sendBufs[r] goes to group
// rank r, recvBufs[r] is filled from rank r (nil slices mean empty).
// Pairwise exchange with the congestion divisor.
func IalltoallV(t *vclock.Task, e *proto.Engine, g Group, sendBufs, recvBufs [][]byte, tag int) *Sched {
	phases := pairwisePhases(newCtx(e, g, tag),
		func(r int) []byte { return sendBufs[r] },
		func(r int) []byte { return recvBufs[r] })
	return start(t, e, "alltoallv", phases)
}

// IallgatherV gathers variable-sized blocks from every rank to every rank:
// block is this rank's contribution; out[r] receives rank r's block.
// Ring algorithm.
func IallgatherV(t *vclock.Task, e *proto.Engine, g Group, block []byte, out [][]byte, tag int) *Sched {
	phases := []Phase{copyPhase(e, out[g.Me], block)}
	at := func(b int) payload { return pay(out[b]) }
	phases = ringAllgatherPhases(newCtx(e, g, tag), g.Me, rotated(g.Size(), 0), at, phases)
	return start(t, e, "allgatherv", phases)
}
