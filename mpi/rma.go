package mpi

import (
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// Win is a one-sided communication window over a byte buffer, created
// collectively on a communicator. The paper lists RMA as future work for
// the offload infrastructure (§7); here Get and Accumulate go through the
// backend like every other call, so the offload thread gives Accumulate the
// asynchronous target-side progress it needs.
type Win struct {
	c  *Comm
	pw *proto.Win
}

// WinCreate collectively exposes buf (this rank's share of the window).
// All ranks of the communicator must call it in the same order.
func (c *Comm) WinCreate(buf []byte) *Win {
	st := c.st
	st.colls++
	id := st.id<<16 | st.colls | 1<<28 // window id space, distinct per comm
	var pw *proto.Win
	st.b.call(c.t, func(*vclock.Task, *direct) { pw = st.eng.NewWin(id, buf) })
	w := &Win{c: c, pw: pw}
	c.Barrier() // everyone must have registered before any access
	return w
}

// Get reads len(local) bytes from target's window at offset off into
// local; the data is available after the next Fence (or Flush).
func (w *Win) Get(local []byte, target, off int) {
	st := w.c.st
	gt := st.ranks[target]
	w.c.run(func(t *vclock.Task) { st.eng.Get(t, w.pw, local, gt, off) })
}

// Accumulate reduces local into target's window at offset off using op.
// The target's progress engine applies it — under the offload approach,
// promptly and asynchronously; under baseline, only when the target next
// enters MPI.
func (w *Win) Accumulate(local []byte, target, off int, op ReduceOp) {
	st := w.c.st
	gt := st.ranks[target]
	w.c.run(func(t *vclock.Task) { st.eng.Accumulate(t, w.pw, local, gt, off, op) })
}

// Fence closes the current access epoch: all locally issued operations
// complete, and every pre-fence Accumulate from any rank is visible in
// the local window afterwards.
func (w *Win) Fence() {
	// Local completion of our outstanding origin-side operations.
	w.c.st.b.call(w.c.t, func(t *vclock.Task, d *direct) { d.await(t, w.pw.TakeOutstanding()) })
	// Global ordering: the barrier's messages cannot overtake earlier RMA
	// traffic (FIFO per pair), so after it every pre-fence operation has
	// arrived; one final progress drain applies pending accumulates.
	w.c.Barrier()
	w.c.run(func(t *vclock.Task) {
		for w.c.st.eng.PendingInbox() > 0 {
			w.c.st.eng.Progress(t)
		}
	})
}
