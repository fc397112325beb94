package mpi

// ULFM-style fault tolerance (after the MPI Forum's User-Level Failure
// Mitigation proposal): when a peer crashes, pending operations complete
// with proto.ErrRankFailed instead of hanging, and the application recovers
// by acknowledging the failures (AckFailed, as MPIX_Comm_failure_ack) and
// shrinking the communicator around the survivors (Shrink, as
// MPIX_Comm_shrink). The simulation's failure detector is perfect — a crash
// is visible to every survivor from the instant it happens — so agreement
// reduces to a bitwise-OR allreduce of the locally observed failed sets,
// retried until it converges.

// AckFailed returns the group ranks of this communicator whose processes
// have failed by the current virtual time, in ascending rank order
// (MPIX_Comm_failure_ack + MPIX_Comm_failure_get_acked rolled into one).
// It never blocks and is safe to call from any bound thread.
func (c *Comm) AckFailed() []int {
	var failed []int
	for r, gr := range c.st.ranks {
		if c.st.eng.F.RankFailed(gr) {
			failed = append(failed, r)
		}
	}
	return failed
}

// Shrink builds a new communicator containing the surviving ranks of c, in
// their old relative order (MPIX_Comm_shrink). It is collective over the
// survivors: every live rank must call it, and all calls must observe the
// same derivation history (same dups count). A rank that has itself
// failed — or whose caller races the detector and is marked failed —
// returns nil.
//
// Survivors agree on the failed set with a bitwise-OR allreduce of their
// locally acked failure bitmaps, executed on the candidate shrunk
// communicator; if the agreement round reveals additional failures (a crash
// that landed mid-shrink), the round repeats on the further-shrunk group
// until the set is stable. Collectives on the returned communicator rebuild
// their schedules around the shrunk membership.
func (c *Comm) Shrink() *Comm {
	st := c.st
	n := c.Size()
	words := (n + 63) / 64
	failed := make([]int64, words)
	for _, r := range c.AckFailed() {
		failed[r/64] |= 1 << uint(r%64)
	}

	for {
		id := c.nextID()
		var ranks []int
		me := -1
		for r := 0; r < n; r++ {
			if failed[r/64]&(1<<uint(r%64)) != 0 {
				continue
			}
			if r == st.me {
				me = len(ranks)
			}
			ranks = append(ranks, st.ranks[r])
		}
		if me < 0 {
			return nil // this rank is (marked) failed: it gets no shrunk comm
		}

		nc := c.derive(id, ranks, me)

		// Agreement round on the candidate: OR everyone's failed bitmap.
		agreed := append([]int64(nil), failed...)
		r := nc.Iallreduce(Int64Bytes(agreed), BorInt64)
		stat := nc.Wait(&r)
		if stat.Err != nil {
			// A survivor died mid-agreement. Fold in everything the
			// detector knows now and retry on the smaller group.
			for _, fr := range c.AckFailed() {
				agreed[fr/64] |= 1 << uint(fr%64)
			}
		}
		same := true
		for i := range agreed {
			if agreed[i] != failed[i] {
				same = false
			}
		}
		if same && stat.Err == nil {
			return nc
		}
		failed = agreed
	}
}
