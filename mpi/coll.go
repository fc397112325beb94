package mpi

import (
	"mpioffload/internal/coll"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// ReduceOp is an element-wise reduction operator over raw buffers; use the
// typed operators in this package (SumFloat64, SumInt64, BorInt64).
type ReduceOp = coll.Combine

// icoll posts a collective-schedule constructor through the backend; Wait
// surfaces the schedule's Failed() state through Status.Err.
func (c *Comm) icoll(mk func(t *vclock.Task) proto.Req) Request { return c.st.b.post(c.t, mk) }

// Ibarrier starts a nonblocking barrier.
func (c *Comm) Ibarrier() Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Ibarrier(t, c.st.eng, g, tag)
	})
}

// Barrier blocks until all ranks of the communicator reach it.
func (c *Comm) Barrier() {
	r := c.Ibarrier()
	c.Wait(&r)
}

// Ibcast starts a nonblocking broadcast of buf from root.
func (c *Comm) Ibcast(buf []byte, root int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Ibcast(t, c.st.eng, g, buf, root, tag)
	})
}

// Ireduce starts a nonblocking reduction of buf to root (in place; the
// root's buf holds the result on completion).
func (c *Comm) Ireduce(buf []byte, op ReduceOp, root int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Ireduce(t, c.st.eng, g, buf, op, root, tag)
	})
}

// Iallreduce starts a nonblocking all-reduce of buf (in place on all
// ranks). Small payloads use recursive doubling; payloads above
// coll.RingThreshold use the bandwidth-optimal ring algorithm.
func (c *Comm) Iallreduce(buf []byte, op ReduceOp) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IallreduceAuto(t, c.st.eng, g, buf, op, tag)
	})
}

// Allreduce all-reduces buf in place on every rank.
func (c *Comm) Allreduce(buf []byte, op ReduceOp) {
	r := c.Iallreduce(buf, op)
	c.Wait(&r)
}

// Igather starts a nonblocking gather of equal-sized blocks to root.
// out must be Size()*len(block) bytes on the root (ignored elsewhere).
func (c *Comm) Igather(block, out []byte, root int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Igather(t, c.st.eng, g, block, out, root, tag)
	})
}

// Iscatter starts a nonblocking scatter of equal blocks from root's in
// buffer (Size()*len(block) bytes) into block everywhere.
func (c *Comm) Iscatter(in, block []byte, root int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Iscatter(t, c.st.eng, g, in, block, root, tag)
	})
}

// Iallgather starts a nonblocking allgather: every rank contributes block
// and receives all blocks, in rank order, into out (Size()*len(block)).
func (c *Comm) Iallgather(block, out []byte) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Iallgather(t, c.st.eng, g, block, out, tag)
	})
}

// Ialltoall starts a nonblocking all-to-all of equal blocks of bs bytes:
// send and recv are Size()*bs bytes; block r of send goes to rank r and
// block r of recv comes from rank r.
func (c *Comm) Ialltoall(send, recv []byte, bs int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.Ialltoall(t, c.st.eng, g, send, recv, bs, tag)
	})
}

// Alltoall exchanges equal blocks between all ranks.
func (c *Comm) Alltoall(send, recv []byte, bs int) {
	r := c.Ialltoall(send, recv, bs)
	c.Wait(&r)
}

// IalltoallBytes starts a phantom nonblocking all-to-all of bs-byte blocks.
func (c *Comm) IalltoallBytes(bs int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IalltoallN(t, c.st.eng, g, bs, tag)
	})
}

// AlltoallBytes performs a phantom blocking all-to-all of bs-byte blocks.
func (c *Comm) AlltoallBytes(bs int) {
	r := c.IalltoallBytes(bs)
	c.Wait(&r)
}

// IallreduceBytes starts a phantom nonblocking allreduce of n bytes by
// recursive doubling: unlike Iallreduce, it never takes the ring, even at
// or above coll.RingThreshold.
func (c *Comm) IallreduceBytes(n int) Request {
	g, tag := c.group(), c.nextCollTag()
	return c.icoll(func(t *vclock.Task) proto.Req {
		return coll.IallreduceAutoN(t, c.st.eng, g, n, tag)
	})
}
