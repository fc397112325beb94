package mpi

// PersistentRequest is a reusable communication request (MPI_Send_init /
// MPI_Recv_init): the argument set is frozen once and the operation is
// restarted each iteration with Start — the idiom of iterative halo
// exchanges.
type PersistentRequest struct {
	c      *Comm
	isSend bool
	buf    []byte
	peer   int
	tag    int
	active Request
	live   bool
}

// SendInit creates a persistent send request (inactive until Start).
func (c *Comm) SendInit(buf []byte, dst, tag int) *PersistentRequest {
	return &PersistentRequest{c: c, isSend: true, buf: buf, peer: dst, tag: tag}
}

// RecvInit creates a persistent receive request (inactive until Start).
func (c *Comm) RecvInit(buf []byte, src, tag int) *PersistentRequest {
	return &PersistentRequest{c: c, buf: buf, peer: src, tag: tag}
}

// Start activates the request. Starting an already active request panics
// (as it is erroneous in MPI).
func (p *PersistentRequest) Start() {
	if p.live {
		panic("mpi: Start on an active persistent request")
	}
	if p.isSend {
		p.active = p.c.Isend(p.buf, p.peer, p.tag)
	} else {
		p.active = p.c.Irecv(p.buf, p.peer, p.tag)
	}
	p.live = true
}

// Wait completes the active operation and deactivates the request, which
// may then be started again.
func (p *PersistentRequest) Wait() Status {
	if !p.live {
		return Status{}
	}
	st := p.c.Wait(&p.active)
	p.live = false
	return st
}

// Test checks the active operation; on completion the request deactivates.
func (p *PersistentRequest) Test() (bool, Status) {
	if !p.live {
		return true, Status{}
	}
	done, st := p.c.Test(&p.active)
	if done {
		p.live = false
	}
	return done, st
}
