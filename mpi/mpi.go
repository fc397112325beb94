// Package mpi is the MPI-like public API of the simulated cluster runtime.
//
// A Comm is a communicator handle bound to one application thread of one
// rank (threads obtain their own bound handles; see package sim). The API
// mirrors the MPI operations the paper's applications use: nonblocking and
// blocking point-to-point, Wait/Waitall/Iprobe, and the common collectives
// in blocking and nonblocking form.
//
// The API sits on a Backend, chosen when the rank is built, and never asks
// which one it has: every entry point posts an issue closure or waits on a
// request through it (a synchronous call is both). There are two backends:
//
//   - Direct — the calling thread enters the protocol engine itself, with
//     no locking (MPI_THREAD_FUNNELED) or under the implementation's global
//     lock (MPI_THREAD_MULTIPLE); progress happens inside the calls unless
//     a progress driver beside the rank makes it (package sim).
//   - Offload — calls are serialized into the lock-free command queue of
//     the rank's offload thread (paper §3), which drives the engine on
//     their behalf; the caller pays only the enqueue cost, and blocking
//     calls become nonblocking + done-flag wait.
package mpi

import (
	"fmt"

	"mpioffload/internal/coll"
	"mpioffload/internal/core"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// Wildcards for Recv/Iprobe source and tag.
const (
	AnySource = proto.AnySource
	AnyTag    = proto.AnyTag
)

// Request failure causes surfaced by the watchdog layer (package sim's
// Config.Watchdog). Test with errors.Is: the concrete error wraps these with
// rank/peer/deadline context.
var (
	// ErrTimeout means the request was still in flight when its deadline
	// expired (lost beyond recovery, peer never posted, or a stalled NIC).
	ErrTimeout = proto.ErrTimeout
	// ErrRankFailed means the peer rank crashed; the request can never
	// complete.
	ErrRankFailed = proto.ErrRankFailed
)

// Status reports the source, tag and byte count of a completed receive.
// Err is non-nil when the watchdog failed the request instead of letting it
// block forever; the buffer contents are then undefined.
type Status struct {
	Source int
	Tag    int
	Count  int
	Err    error
}

// Request is a pending nonblocking operation. The zero value is a null
// request (ignored by Wait and Waitall).
type Request struct {
	h      core.Handle // the offload backend's command slot
	req    *proto.Req  // the issued operation, set by the issuing thread
	waited bool
}

// IsNull reports whether the request is the null request.
func (r *Request) IsNull() bool { return r.req == nil }

// commState is the per-rank state of one communicator, shared by all
// thread-bound Comm handles of that rank.
type commState struct {
	eng   *proto.Engine
	b     Backend
	id    int
	ranks []int // group: global rank of each group rank
	me    int   // my group rank
	nodes int   // distinct nodes spanned by the group
	colls int   // collective sequence number (tag space)
	dups  int   // communicator-derivation counter
}

// Comm is a communicator handle bound to the calling thread.
type Comm struct {
	st *commState
	t  *vclock.Task
}

// NewComm assembles a communicator handle. It is the bridge used by the
// sim package when constructing clusters; applications receive ready-made
// Comms and never call this.
func NewComm(t *vclock.Task, eng *proto.Engine, b Backend, id int, ranks []int, me, nodes int) *Comm {
	return &Comm{
		st: &commState{eng: eng, b: b, id: id, ranks: ranks, me: me, nodes: nodes},
		t:  t,
	}
}

// Bind returns a handle on the same communicator bound to another thread.
func (c *Comm) Bind(t *vclock.Task) *Comm { return &Comm{st: c.st, t: t} }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.st.me }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.st.ranks) }

func (c *Comm) group() coll.Group {
	return coll.Group{Ranks: c.st.ranks, Me: c.st.me, Comm: c.st.id, Nodes: c.st.nodes}
}

// nextCollTag returns the tag for the next collective on this comm. MPI
// requires all ranks to issue collectives on a communicator in the same
// order, which is what makes the sequence numbers agree.
func (c *Comm) nextCollTag() int {
	c.st.colls++
	return c.st.colls
}

// global translates a source rank (or AnySource) to a global rank.
func (c *Comm) global(src int) int {
	if src == AnySource {
		return src
	}
	return c.st.ranks[src]
}

// run executes fn inside the library as one call, serialized with every
// other, and returns when it has finished.
func (c *Comm) run(fn func(*vclock.Task)) {
	r := c.st.b.post(c.t, func(t *vclock.Task) proto.Req {
		fn(t)
		return nil
	})
	c.Wait(&r)
}

// ---- point-to-point ----

// Isend starts a nonblocking send of buf to dst with tag.
func (c *Comm) Isend(buf []byte, dst, tag int) Request {
	st, gdst := c.st, c.st.ranks[dst]
	return st.b.post(c.t, func(t *vclock.Task) proto.Req { return st.eng.Isend(t, buf, gdst, tag, st.id) })
}

// Irecv starts a nonblocking receive into buf from src (or AnySource).
func (c *Comm) Irecv(buf []byte, src, tag int) Request {
	st, gsrc := c.st, c.global(src)
	return st.b.post(c.t, func(t *vclock.Task) proto.Req { return st.eng.Irecv(t, buf, gsrc, tag, st.id) })
}

// Send is the blocking send: Isend + Wait. Through the offload backend this
// is the paper's §3.3 blocking→nonblocking conversion.
func (c *Comm) Send(buf []byte, dst, tag int) {
	c.st.b.blocking(c.t)
	r := c.Isend(buf, dst, tag)
	c.Wait(&r)
}

// Recv is the blocking receive; it returns the completion status.
func (c *Comm) Recv(buf []byte, src, tag int) Status {
	c.st.b.blocking(c.t)
	r := c.Irecv(buf, src, tag)
	return c.Wait(&r)
}

// Wait blocks until the request completes and returns the receive status
// (zero Status for sends and collectives). The request is consumed.
func (c *Comm) Wait(r *Request) Status {
	if r.IsNull() || r.waited {
		return Status{}
	}
	r.waited = true
	c.st.b.wait(c.t, []*Request{r})
	return r.status()
}

func (r *Request) status() Status {
	switch req := (*r.req).(type) {
	case *proto.Op:
		return Status{Source: req.Stat.Source, Tag: req.Stat.Tag, Count: req.Stat.Count, Err: req.Err}
	case interface{ Failed() error }:
		// Collectives: a schedule whose point-to-point operations were
		// failed by the watchdog reports the first such error instead of
		// pretending the (incomplete) result is clean.
		return Status{Err: req.Failed()}
	}
	return Status{}
}

// Waitall completes a set of requests.
func (c *Comm) Waitall(rs ...*Request) {
	var live []*Request
	for _, r := range rs {
		if !r.IsNull() && !r.waited {
			r.waited = true
			live = append(live, r)
		}
	}
	c.st.b.wait(c.t, live)
}

// Iprobe checks for a matching incoming message without receiving it.
// Without an offload thread this doubles as the application-driven
// progress knob (the paper's iprobe approach, §2.1).
func (c *Comm) Iprobe(src, tag int) (bool, Status) {
	st, gsrc := c.st, c.global(src)
	var ok bool
	var ps proto.Status
	c.run(func(t *vclock.Task) { ok, ps = st.eng.Iprobe(t, gsrc, tag, st.id) })
	return ok, Status{Source: ps.Source, Tag: ps.Tag, Count: ps.Count}
}

// Compute charges flops of single-threaded computation to the bound
// thread's virtual clock. Library routines (the distributed FFT, for
// example) use it so their computation occupies simulated time and can
// genuinely overlap communication.
func (c *Comm) Compute(flops float64) {
	c.t.SleepF(flops / c.st.eng.P.ThreadFlops)
}

// nextID advances the derivation counter and returns the id space of the
// next communicator derived from c.
func (c *Comm) nextID() int {
	st := c.st
	st.dups++
	id := st.id*1024 + st.dups
	if id <= st.id {
		panic(fmt.Sprintf("mpi: communicator id overflow deriving from %d", st.id))
	}
	return id
}

// derive builds a communicator over the global ranks (in group order) on
// the same engine and backend as c; me is this rank's position in ranks.
func (c *Comm) derive(id int, ranks []int, me int) *Comm {
	// Node count for the congestion model: one node per RanksPerNode block
	// of the global ranks.
	nodes := map[int]bool{}
	for _, gr := range ranks {
		nodes[gr/c.st.eng.P.RanksPerNode] = true
	}
	return NewComm(c.t, c.st.eng, c.st.b, id, ranks, me, len(nodes))
}

// ---- phantom (size-only) operations ------------------------------------
//
// Scaling studies simulate the communication of very large buffers without
// allocating them: the full protocol, progress and network behaviour is
// exercised for n wire bytes, but no payload is carried.

// IsendBytes starts a phantom nonblocking send of n wire bytes.
func (c *Comm) IsendBytes(n, dst, tag int) Request {
	st, gdst := c.st, c.st.ranks[dst]
	return st.b.post(c.t, func(t *vclock.Task) proto.Req { return st.eng.IsendN(t, nil, n, gdst, tag, st.id, 1) })
}

// IrecvBytes starts a phantom nonblocking receive of up to n wire bytes.
func (c *Comm) IrecvBytes(n, src, tag int) Request {
	st, gsrc := c.st, c.global(src)
	return st.b.post(c.t, func(t *vclock.Task) proto.Req { return st.eng.IrecvN(t, nil, n, gsrc, tag, st.id) })
}
