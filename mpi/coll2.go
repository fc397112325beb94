package mpi

import (
	"mpioffload/internal/coll"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// Sendrecv posts the send and the receive together and waits for both —
// the deadlock-free paired exchange.
func (c *Comm) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) Status {
	rr := c.Irecv(recvBuf, src, recvTag)
	rs := c.Isend(sendBuf, dst, sendTag)
	st := c.Wait(&rr)
	c.Wait(&rs)
	return st
}

// Iscan starts a nonblocking inclusive prefix reduction: on return from
// the wait, rank r's buf holds op(buf₀ … buf_r).
func (c *Comm) Iscan(buf []byte, op ReduceOp) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IScan(t, c.st.eng, g, buf, op, tag)
	})
}

// Scan is the blocking inclusive prefix reduction.
func (c *Comm) Scan(buf []byte, op ReduceOp) {
	r := c.Iscan(buf, op)
	c.Wait(&r)
}

// IreduceScatterBlock starts a nonblocking reduce-scatter of equal blocks:
// buf holds Size() blocks; out (len(buf)/Size() bytes) receives this
// rank's fully reduced block.
func (c *Comm) IreduceScatterBlock(buf, out []byte, op ReduceOp) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IreduceScatterBlock(t, c.st.eng, g, buf, out, op, tag)
	})
}

// ReduceScatterBlock is the blocking equal-block reduce-scatter.
func (c *Comm) ReduceScatterBlock(buf, out []byte, op ReduceOp) {
	r := c.IreduceScatterBlock(buf, out, op)
	c.Wait(&r)
}

// IalltoallV starts a nonblocking variable-size all-to-all: sendBufs[r]
// goes to rank r and recvBufs[r] is filled from rank r (sizes must agree
// pairwise; nil means empty).
func (c *Comm) IalltoallV(sendBufs, recvBufs [][]byte) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IalltoallV(t, c.st.eng, g, sendBufs, recvBufs, tag)
	})
}

// IallgatherV starts a nonblocking variable-size allgather: every rank
// contributes block; out[r] receives rank r's block on every rank.
func (c *Comm) IallgatherV(block []byte, out [][]byte) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IallgatherV(t, c.st.eng, g, block, out, tag)
	})
}

// IallreduceRing starts the bandwidth-optimal ring allreduce explicitly
// (Iallreduce selects it automatically above coll.RingThreshold).
func (c *Comm) IallreduceRing(buf []byte, op ReduceOp) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IallreduceRing(t, c.st.eng, g, buf, op, tag)
	})
}

// IallreduceHier starts the topology-aware hierarchical allreduce
// explicitly: intra-node reduce-scatter over shared memory, concurrent
// inter-node rings, intra-node allgather (Iallreduce selects it
// automatically for large payloads when the fabric has an explicit
// topology). len(buf) must be a multiple of 8.
func (c *Comm) IallreduceHier(buf []byte, op ReduceOp) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IallreduceHier(t, c.st.eng, g, buf, op, tag)
	})
}
