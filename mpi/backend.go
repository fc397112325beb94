package mpi

import (
	"mpioffload/internal/core"
	"mpioffload/internal/obs"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// Backend carries a communicator's calls into the rank's protocol engine.
// Its methods are unexported, so the two implementations below are the only
// ones: Direct (the calling thread enters the engine) and Offload (one
// offload thread enters it on every application thread's behalf).
type Backend interface {
	// post issues one operation and returns its request. A nil operation
	// means the issue completed inline.
	post(t *vclock.Task, issue func(*vclock.Task) proto.Req) Request
	// wait blocks until every request in rs has completed.
	wait(t *vclock.Task, rs []*Request)
	// blocking notes that a blocking point-to-point call is about to run
	// as post + wait.
	blocking(t *vclock.Task)
}

// direct is the backend of the approaches without an offload thread: the
// calling thread runs the engine itself. With locked set every entry takes
// the implementation's global lock (MPI_THREAD_MULTIPLE), paying its
// acquisition and contention costs; otherwise calls enter the engine
// unguarded (MPI_THREAD_FUNNELED).
type direct struct {
	eng    *proto.Engine
	locked bool
}

// Direct returns the backend in which each calling thread drives eng.
func Direct(eng *proto.Engine, locked bool) Backend { return &direct{eng: eng, locked: locked} }

func (d *direct) post(t *vclock.Task, issue func(*vclock.Task) proto.Req) Request {
	if d.locked {
		d.eng.EnterLock(t)
		defer d.eng.ExitLock(t)
	}
	if req := issue(t); req != nil {
		return Request{req: &req}
	}
	return Request{}
}

func (d *direct) wait(t *vclock.Task, rs []*Request) {
	reqs := make([]proto.Req, len(rs))
	for i, r := range rs {
		reqs[i] = *r.req
	}
	switch {
	case len(reqs) == 0:
	case d.locked:
		d.eng.WaitAllLocked(t, reqs...)
	default:
		d.eng.WaitAll(t, reqs...)
	}
}

func (d *direct) blocking(*vclock.Task) {}

// offload is the paper's backend (§3): every call is serialized into the
// lock-free command queue of the rank's offload thread, which alone drives
// the engine, unlocked. The caller pays only the enqueue cost, and blocking
// calls become post + done-flag wait.
type offload struct {
	off *core.Offloader
}

// Offload returns the backend that routes every call through off.
func Offload(off *core.Offloader) Backend { return &offload{off: off} }

func (o *offload) post(t *vclock.Task, issue func(*vclock.Task) proto.Req) Request {
	req := new(proto.Req)
	h := o.off.Submit(t, func(ot *vclock.Task) proto.Req {
		*req = issue(ot)
		return *req
	})
	return Request{h: h, req: req}
}

func (o *offload) wait(t *vclock.Task, rs []*Request) {
	for _, r := range rs {
		o.off.Wait(t, r.h)
	}
}

func (o *offload) blocking(t *vclock.Task) {
	if eng := o.off.Eng; eng.Obs.Enabled() {
		eng.Obs.Converted(t.Now(), obs.TaskClass(t.Name))
	}
}
