package transport

// Loopback: the in-process backend. Send resolves the destination
// endpoint in the shared mesh and invokes its handler on the calling
// goroutine — the exact delivery discipline the rt layer used before the
// transport seam existed (the sender enqueues straight into the
// receiver's matching-engine inbox), so the default path keeps its
// historical performance: no extra goroutines, no extra copies.

import (
	"errors"
	"sync/atomic"
)

// ErrClosed is returned by Send on a closed endpoint or to a closed peer.
var ErrClosed = errors.New("transport: endpoint closed")

// Loopback is an in-process mesh of n ranks.
type Loopback struct {
	eps []*loopEndpoint
}

// NewLoopback builds the in-process mesh.
func NewLoopback(n int) *Loopback {
	m := &Loopback{eps: make([]*loopEndpoint, n)}
	for i := range m.eps {
		m.eps[i] = &loopEndpoint{mesh: m, rank: i}
	}
	return m
}

// Endpoint returns rank's endpoint.
func (m *Loopback) Endpoint(rank int) Endpoint { return m.eps[rank] }

// Size returns the rank count.
func (m *Loopback) Size() int { return len(m.eps) }

// Close closes every endpoint.
func (m *Loopback) Close() error {
	for _, ep := range m.eps {
		ep.Close()
	}
	return nil
}

type loopEndpoint struct {
	mesh   *Loopback
	rank   int
	h      atomic.Pointer[Handler]
	closed atomic.Bool
	counters
}

func (e *loopEndpoint) Rank() int { return e.rank }

func (e *loopEndpoint) Size() int { return len(e.mesh.eps) }

func (e *loopEndpoint) Bind(h Handler) { e.h.Store(&h) }

// Send delivers f synchronously on the caller's goroutine. Frames to a
// closed or unbound peer are dropped (counted as send errors): a dark NIC,
// not a failure the sender can act on.
func (e *loopEndpoint) Send(f Frame) error {
	if e.closed.Load() {
		e.sendErrs.Add(1)
		return ErrClosed
	}
	if f.Dst < 0 || f.Dst >= len(e.mesh.eps) {
		e.sendErrs.Add(1)
		return errors.New("transport: destination rank out of range")
	}
	n := WireLen(&f)
	e.noteSend(1, n)
	dst := e.mesh.eps[f.Dst]
	if dst.closed.Load() {
		e.sendErrs.Add(1)
		return nil // dark NIC: accepted by the wire, never delivered
	}
	h := dst.h.Load()
	if h == nil {
		e.sendErrs.Add(1)
		return nil
	}
	dst.noteRecv(n)
	(*h)(f)
	return nil
}

func (e *loopEndpoint) Close() error {
	e.closed.Store(true)
	return nil
}

func (e *loopEndpoint) Stats() Stats { return e.snapshot() }
