package proto

import (
	"fmt"

	"mpioffload/internal/vclock"
)

// One-sided communication (MPI RMA). The paper names RMA as future work
// for the offload infrastructure (§7); this implements Get and Accumulate
// over the same fabric, with the fence synchronization built on the
// collectives at the mpi layer.
//
// Semantics follow the hardware reality the paper discusses:
//
//   - Get is pure RDMA: the target's NIC reads the exposed window without
//     any target software, so it needs no asynchronous progress at the
//     target.
//   - Accumulate requires target-side software (the reduction must be
//     applied by a CPU), so it lands in the target's inbox and is applied
//     only when the target's progress engine runs — exactly the class of
//     operation that benefits from a dedicated progress/offload thread
//     (cf. Casper [Si et al., IPDPS'15]).

// Win is one rank's exposure of a byte buffer for one-sided access.
type Win struct {
	Eng *Engine
	ID  int
	Buf []byte
	// outstanding are this rank's origin-side in-flight operations,
	// completed by fence-time waits.
	outstanding []*Op
}

// NewWin exposes buf under a cluster-unique id (the mpi layer derives ids
// from collective sequence numbers so all ranks agree).
func (e *Engine) NewWin(id int, buf []byte) *Win {
	w := &Win{Eng: e, ID: id, Buf: buf}
	e.F.RegisterWin(id, e.Rank, w)
	return w
}

func (e *Engine) peerWin(id, rank int) *Win {
	w, _ := e.F.LookupWin(id, rank).(*Win)
	if w == nil {
		panic(fmt.Sprintf("proto: rank %d has no window %d", rank, id))
	}
	return w
}

type getReq struct {
	op  *Op // origin's op
	off int
	n   int
	win *Win // target's window
}

type getResp struct {
	op   *Op
	data []byte
}

type accMsg struct {
	op      *Op
	off     int
	data    []byte
	win     *Win
	combine func(dst, src []byte)
}

// Get starts a one-sided read of len(local) bytes from the target's window
// at offset off into local. The op completes when the data lands.
func (e *Engine) Get(t *vclock.Task, w *Win, local []byte, target, off int) *Op {
	tw := e.peerWin(w.ID, target)
	if off < 0 || off+len(local) > len(tw.Buf) {
		panic("proto: Get outside window")
	}
	op := &Op{Eng: e, Peer: target, Buf: local, Bytes: len(local)}
	t.SleepF(e.P.CallOverhead + e.P.RTSCost)
	e.F.Send(e.Rank, target, ctlBytes, 1, &getReq{op: op, off: off, n: len(local), win: tw})
	w.outstanding = append(w.outstanding, op)
	return op
}

// Accumulate starts a one-sided reduction of local into the target's
// window at offset off (window ⊕= local, element-wise via combine). The
// target's software applies it at its next progress — the operation class
// that needs asynchronous progress.
func (e *Engine) Accumulate(t *vclock.Task, w *Win, local []byte, target, off int, combine func(dst, src []byte)) *Op {
	tw := e.peerWin(w.ID, target)
	if off < 0 || off+len(local) > len(tw.Buf) {
		panic("proto: Accumulate outside window")
	}
	op := &Op{Eng: e, IsSend: true, Peer: target, Bytes: len(local)}
	data := make([]byte, len(local))
	copy(data, local)
	t.SleepF(e.P.CallOverhead + e.P.CopyTime(len(local)))
	e.F.Send(e.Rank, target, len(local), 1, &accMsg{op: op, off: off, data: data, win: tw, combine: combine})
	// Origin completion is local (buffer captured).
	e.completeOp(op, Status{})
	return op
}

// TakeOutstanding returns every origin-side operation issued on w since the
// last call, for the local half of a fence to wait on.
func (w *Win) TakeOutstanding() []Req {
	reqs := make([]Req, len(w.outstanding))
	for i, op := range w.outstanding {
		reqs[i] = op
	}
	w.outstanding = w.outstanding[:0]
	return reqs
}

// handleRMA processes one-sided packets; it returns (cost, true) if the
// packet was an RMA message.
func (e *Engine) handleRMA(pkt any) (float64, bool) {
	switch m := pkt.(type) {
	case *getReq:
		// RDMA read bounced by the NIC in deliver(); nothing to do here.
		return 0, true
	case *getResp:
		return 0, true
	case *accMsg:
		// Target software applies the reduction.
		m.combine(m.win.Buf[m.off:m.off+len(m.data)], m.data)
		return e.P.CopyTime(len(m.data)), true
	}
	return 0, false
}

// deliverRMA performs the hardware (NIC) side of an arriving one-sided
// packet: RDMA reads bounce back and completions fire, all without target
// software. It reports whether the packet should still be queued for
// software processing.
func (e *Engine) deliverRMA(pkt any) (needsSoftware bool, handled bool) {
	switch m := pkt.(type) {
	case *getReq:
		data := make([]byte, m.n)
		copy(data, m.win.Buf[m.off:m.off+m.n])
		e.F.Send(e.Rank, m.op.Eng.Rank, m.n, 1, &getResp{op: m.op, data: data})
		return false, true
	case *getResp:
		copy(m.op.Buf, m.data)
		m.op.Eng.completeOp(m.op, Status{})
		return false, true
	case *accMsg:
		// Needs target software: queue for the progress engine.
		return true, true
	}
	return true, false
}
