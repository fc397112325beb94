// Package transport is the wire layer under the real-time (rt) offload
// stack: a small Endpoint interface that moves framed messages between
// ranks, with two backends.
//
//   - Loopback keeps every rank in one process and delivers frames by
//     direct function call on the sender's goroutine — the historical rt
//     "in-process NIC", now behind the interface. It is the default and
//     the fast path for tests.
//   - Socket runs each rank over real Unix-domain sockets, one rank per
//     OS process if desired (cmd/mpirun spawns workers and the ranks
//     rendezvous through a shared directory of socket files).
//     The same rt command queue, request pool and offload loop run
//     unchanged; only the bytes now cross a kernel boundary. A batch of
//     frames for one peer leaves in one writev, and the reader decodes
//     frames out of a buffer, so a flood costs a few system calls per
//     hundred frames instead of three per frame.
//
// Both backends are reliable FIFO streams: neither drops, duplicates or
// reorders a frame in transit. Their one failure is a dead peer (a closed
// endpoint or connection), and the rt layer above fails the requests that
// wait on one. The simulated fabric is reliable in the same way: its one
// failure is a crashed rank, as on the reliable fabrics the paper runs
// over.
//
// Frames carry the repo-wide causal flow stamp (obs.FlowID) so
// cross-process traffic remains traceable with the same tooling as
// simulated traffic.
package transport

import (
	"sync/atomic"
)

// KindData is the only frame kind: an application payload. The header
// still carries the kind byte, and a receiver drops any frame whose kind
// it does not know.
const KindData uint8 = 0

// Frame is one wire message: routing header, causal flow stamp, payload.
type Frame struct {
	Kind     uint8
	Src, Dst int
	Tag      int
	Flow     int64 // causal flow id, (src+1)<<32 | seq; 0 = unstamped
	Data     []byte
	pooled   bool // Data came from the socket reader's payload pool
}

// Pooled reports whether f.Data was drawn from the socket reader's payload
// pool. Such a buffer is referenced by the delivered frame alone, so the
// handler owns it outright and may hand it back with Recycle once it no
// longer needs the bytes (see payloadPool for why no one else holds it).
func (f *Frame) Pooled() bool { return f.pooled }

// Handler consumes delivered frames. It is invoked in transport context:
// the sender's goroutine for Loopback, a per-connection reader goroutine
// for Socket. A handler may keep f.Data past the call: Socket gives every
// frame its own buffer, and Loopback passes the sender's slice through,
// which the sender gave up with Send. It may recycle f.Data only if
// f.Pooled().
type Handler func(f Frame)

// Stats is a point-in-time snapshot of an endpoint's traffic counters.
// WriteCalls and ReadCalls count the system calls a socket endpoint makes
// on its connections (one per writev, one per read under the reader's
// buffer); in-process backends report 0.
type Stats struct {
	FramesSent, BytesSent int64
	FramesRecv, BytesRecv int64
	SendErrs              int64
	WriteCalls, ReadCalls int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.FramesSent += o.FramesSent
	s.BytesSent += o.BytesSent
	s.FramesRecv += o.FramesRecv
	s.BytesRecv += o.BytesRecv
	s.SendErrs += o.SendErrs
	s.WriteCalls += o.WriteCalls
	s.ReadCalls += o.ReadCalls
}

// counters is the shared atomic implementation behind Stats.
type counters struct {
	framesSent, bytesSent atomic.Int64
	framesRecv, bytesRecv atomic.Int64
	sendErrs              atomic.Int64
	writeCalls, readCalls atomic.Int64
}

func (c *counters) noteSend(frames, n int) {
	c.framesSent.Add(int64(frames))
	c.bytesSent.Add(int64(n))
}

func (c *counters) noteRecv(n int) {
	c.framesRecv.Add(1)
	c.bytesRecv.Add(int64(n))
}

func (c *counters) snapshot() Stats {
	return Stats{
		FramesSent: c.framesSent.Load(),
		BytesSent:  c.bytesSent.Load(),
		FramesRecv: c.framesRecv.Load(),
		BytesRecv:  c.bytesRecv.Load(),
		SendErrs:   c.sendErrs.Load(),
		WriteCalls: c.writeCalls.Load(),
		ReadCalls:  c.readCalls.Load(),
	}
}

// Endpoint is one rank's attachment to a transport backend.
//
// Send is safe for concurrent use and asynchronous: it returns once the
// backend has accepted the frame (Loopback: delivered; Socket: written to
// the kernel). Ownership of f.Data passes to the transport. A Send after
// Close (or to a vanished peer) returns an error; the frame is dropped.
// An endpoint may also implement Batcher; callers with several frames for
// one peer go through SendBatch, which uses it when present. Socket does,
// and its Send is a batch of one.
//
// Bind installs the delivery upcall and must happen before traffic is
// expected; frames arriving with no handler bound wait (Socket) or are
// dropped (Loopback). Socket's per-connection reader pulls bytes through
// a 16 KiB buffer and decodes headers in place, reading a payload longer
// than the buffered bytes straight into the frame's own allocation.
//
// Close is idempotent. It tears down every connection, listener and
// goroutine the endpoint owns and blocks until they are gone — no leaked
// fds, no leaked goroutines.
type Endpoint interface {
	Rank() int
	Size() int
	Send(f Frame) error
	Bind(h Handler)
	Close() error
	Stats() Stats
}

// Batcher is implemented by endpoints that can put several frames on the
// wire in one call. SendBatch has Send's contract for every frame in fs,
// which must all share one Dst; they leave in order, and the frames are
// accepted or refused together. It is deliberately not part of Endpoint:
// a wrapper that embeds an Endpoint and overrides Send must not have a
// promoted SendBatch route frames around its Send.
type Batcher interface {
	SendBatch(fs []Frame) error
}

// SendBatch sends fs, which all share one Dst, through ep: in one call
// when ep is a Batcher, else frame by frame through Send, stopping at the
// first error. Loopback and the wrappers take the per-frame path.
func SendBatch(ep Endpoint, fs []Frame) error {
	if b, ok := ep.(Batcher); ok {
		return b.SendBatch(fs)
	}
	for _, f := range fs {
		if err := ep.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// Mesh is a set of same-process endpoints, one per rank: the form every
// in-process backend (Loopback, the socket test meshes) takes. Close
// closes every endpoint and any shared rendezvous state.
type Mesh interface {
	Endpoint(rank int) Endpoint
	Size() int
	Close() error
}

// WrapMesh derives a mesh whose endpoints are wrap(original endpoint) —
// how a harness puts a timing or frame-mangling Send over a base backend.
// The wrapper is applied once per rank, lazily at first Endpoint call, so
// per-rank wrapper state is created exactly once. Close closes the
// wrapped endpoints (which close the originals).
func WrapMesh(m Mesh, wrap func(Endpoint) Endpoint) Mesh {
	return &wrappedMesh{inner: m, wrap: wrap, eps: make([]Endpoint, m.Size())}
}

type wrappedMesh struct {
	inner Mesh
	wrap  func(Endpoint) Endpoint
	eps   []Endpoint
}

func (w *wrappedMesh) Endpoint(rank int) Endpoint {
	if w.eps[rank] == nil {
		w.eps[rank] = w.wrap(w.inner.Endpoint(rank))
	}
	return w.eps[rank]
}

func (w *wrappedMesh) Size() int { return w.inner.Size() }

func (w *wrappedMesh) Close() error {
	var first error
	for i, ep := range w.eps {
		if ep == nil {
			// Never handed out: close the underlying endpoint directly.
			ep = w.inner.Endpoint(i)
		}
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := w.inner.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
