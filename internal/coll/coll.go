// Package coll implements blocking and nonblocking MPI collectives as
// round-based schedules over the point-to-point protocol engine
// (libNBC-style). A nonblocking collective posts its first round at call
// time and registers the schedule with the rank's progress engine; later
// rounds advance only when progress is driven — which is exactly why
// nonblocking collectives need asynchronous progress to overlap (paper
// Figs 3 and 5).
//
// Algorithms:
//
//	Barrier         — dissemination (⌈log2 n⌉ rounds)
//	Bcast           — binomial tree
//	Reduce          — binomial tree with per-round combines
//	Allreduce       — recursive doubling (non-power-of-two folded onto
//	                  the nearest power of two, MPICH-style); ring
//	                  (reduce-scatter + allgather) at or above
//	                  RingThreshold
//	ReduceScatter   — shifted ring (n-1 rounds)
//	Scan            — linear chain
//	Gather, Scatter — linear to / from root
//	Allgather(V)    — ring (n-1 rounds)
//	Alltoall(V)     — pairwise exchange (n-1 rounds), with the bisection
//	                  congestion divisor applied to every transfer
//	AlltoallN       — scattered: every transfer posted in one round
//
// Each algorithm has exactly one phase builder. Builders move payloads,
// and a payload may be phantom — a size with no bytes — so the workload
// models drive the very schedules the data collectives run.
package coll

import (
	"fmt"
	"math/bits"

	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// collCommBit separates collective traffic from point-to-point traffic on
// the same communicator (a stand-in for MPI's hidden context id), so that
// application wildcard receives can never match collective messages.
const collCommBit = 1 << 30

// Group describes a communicator's membership from one rank's viewpoint.
type Group struct {
	Ranks []int // global ranks; index = group rank
	Me    int   // my index in Ranks
	Comm  int   // communicator id
	Nodes int   // number of distinct physical nodes in the group
}

// Size returns the group size.
func (g Group) Size() int { return len(g.Ranks) }

// Combine is a reduction operator: dst[i] ⊕= src[i], element-wise over the
// byte representation (the caller supplies a typed implementation).
type Combine func(dst, src []byte)

// Phase is one round of a schedule: Post issues its requests; After runs
// once they all complete (e.g. a reduction combine).
type Phase struct {
	Post  func(t *vclock.Task) []proto.Req
	After func(t *vclock.Task)
}

// Sched is an in-flight collective. It satisfies proto.Req (Done) and
// proto.Progressor (Step). Completion of the current phase's operations is
// tracked through per-op callbacks, so stepping a waiting schedule is O(1)
// — essential when a phase posts hundreds of transfers (all-to-all at
// scale).
type Sched struct {
	name        string
	eng         *proto.Engine
	phases      []Phase
	cur         int
	outstanding int
	other       []proto.Req // rare: sub-requests that are not *proto.Op
	done        bool
	err         error
	onDone      []func()
}

// Done reports whether the collective has completed.
func (s *Sched) Done() bool { return s.done }

// Failed returns the first error any of the collective's point-to-point
// operations completed with (a watchdog timeout, a failed peer) — nil for
// a clean collective. The schedule still runs to completion: failed ops
// complete (with Err set), so phases drain instead of wedging, and the
// caller decides whether the result is trustworthy.
func (s *Sched) Failed() error { return s.err }

// OnDone registers a completion callback (proto.Notifier), invoked
// immediately if the schedule has already completed.
func (s *Sched) OnDone(fn func()) {
	if s.done {
		fn()
		return
	}
	s.onDone = append(s.onDone, fn)
}

// String identifies the schedule in diagnostics.
func (s *Sched) String() string { return fmt.Sprintf("%s[phase %d/%d]", s.name, s.cur, len(s.phases)) }

// arm registers completion tracking for a phase's requests. An op that
// completes with an error (watchdog timeout, dead peer) records the first
// such error on the schedule instead of silently vanishing into the
// phase counter.
func (s *Sched) arm(reqs []proto.Req) {
	s.other = s.other[:0]
	for _, r := range reqs {
		if r == nil || r.Done() {
			continue
		}
		if op, ok := r.(*proto.Op); ok {
			s.outstanding++
			op.OnDone(func() {
				s.outstanding--
				if op.Err != nil && s.err == nil {
					s.err = op.Err
				}
			})
		} else {
			if f, ok := r.(interface{ Failed() error }); ok {
				if n, ok := r.(proto.Notifier); ok {
					n.OnDone(func() {
						if err := f.Failed(); err != nil && s.err == nil {
							s.err = err
						}
					})
				}
			}
			s.other = append(s.other, r)
		}
	}
}

func (s *Sched) phaseDone() bool {
	if s.outstanding > 0 {
		return false
	}
	for _, r := range s.other {
		if !r.Done() {
			return false
		}
	}
	return true
}

// Step advances the schedule as far as possible; true means complete.
func (s *Sched) Step(t *vclock.Task) bool {
	if s.done {
		return true
	}
	for {
		if !s.phaseDone() {
			return false
		}
		if s.cur < len(s.phases) && s.phases[s.cur].After != nil {
			s.phases[s.cur].After(t)
		}
		s.cur++
		if s.cur >= len(s.phases) {
			s.done = true
			for _, fn := range s.onDone {
				fn()
			}
			s.onDone = nil
			s.eng.Bump()
			return true
		}
		s.arm(s.phases[s.cur].Post(t))
	}
}

// start charges the collective call overhead, posts the first phase, and
// registers the schedule with the progress engine. Empty schedules (e.g.
// single-rank groups) complete immediately.
func start(t *vclock.Task, e *proto.Engine, name string, phases []Phase) *Sched {
	s := &Sched{name: name, eng: e, phases: phases}
	t.SleepF(e.P.CallOverhead)
	if len(phases) == 0 {
		s.done = true
		return s
	}
	s.arm(phases[0].Post(t))
	e.AddProgressor(s)
	return s
}

// ctx bundles what every algorithm needs.
type ctx struct {
	e   *proto.Engine
	g   Group
	cc  int // collective context (comm with the collective bit)
	tag int
}

func newCtx(e *proto.Engine, g Group, tag int) ctx {
	return ctx{e: e, g: g, cc: g.Comm | collCommBit, tag: tag}
}

// payload is what a schedule moves: real bytes, or — data == nil — a
// phantom size that carries none. Workload models (the QCD/FFT/CNN
// scaling studies) run multi-megabyte operations as phantoms to get their
// full protocol and network timing without allocating them; every send,
// receive and combine is charged for n bytes either way.
type payload struct {
	data []byte // nil for a phantom
	n    int    // wire size; len(data) when data is set
}

func pay(b []byte) payload { return payload{data: b, n: len(b)} }

// split returns block b of m contiguous blocks (uneven splits allowed).
// Data splits at the 8-byte reduce element so Combine sees whole
// elements; phantom splits at the byte.
func (p payload) split(b, m int) payload {
	gran := 1
	if p.data != nil {
		gran = reduceElem
	}
	count := p.n / gran
	lo, hi := b*count/m*gran, (b+1)*count/m*gran
	if p.data == nil {
		return payload{n: hi - lo}
	}
	return pay(p.data[lo:hi])
}

// scratch returns a receive buffer shaped like p: fresh bytes for data,
// none for a phantom.
func (p payload) scratch() payload {
	if p.data == nil {
		return p
	}
	return pay(make([]byte, p.n))
}

func (c ctx) send(t *vclock.Task, p payload, to int) proto.Req { return c.sendBW(t, p, to, 1) }

func (c ctx) sendBW(t *vclock.Task, p payload, to int, bwDiv float64) proto.Req {
	return c.e.IsendN(t, p.data, p.n, c.g.Ranks[to], c.tag, c.cc, bwDiv)
}

func (c ctx) recv(t *vclock.Task, p payload, from int) proto.Req {
	return c.e.IrecvN(t, p.data, p.n, c.g.Ranks[from], c.tag, c.cc)
}

// combine charges the reduction of src into dst and, when there are
// bytes, performs it.
func (c ctx) combine(t *vclock.Task, op Combine, dst, src payload) {
	t.SleepF(c.e.P.CopyTime(dst.n))
	if dst.data != nil {
		op(dst.data, src.data)
	}
}

// sendPhase and recvPhase are phases of a single transfer.
func (c ctx) sendPhase(p payload, to int) Phase {
	return Phase{Post: func(t *vclock.Task) []proto.Req { return []proto.Req{c.send(t, p, to)} }}
}

func (c ctx) recvPhase(p payload, from int) Phase {
	return Phase{Post: func(t *vclock.Task) []proto.Req { return []proto.Req{c.recv(t, p, from)} }}
}

// reducePhase receives a peer's contribution and combines it into p; with
// swap set it also sends p to that peer (a recursive-doubling exchange).
func (c ctx) reducePhase(p payload, op Combine, peer int, swap bool) Phase {
	tmp := p.scratch()
	return Phase{
		Post: func(t *vclock.Task) []proto.Req {
			if !swap {
				return []proto.Req{c.recv(t, tmp, peer)}
			}
			return []proto.Req{c.recv(t, tmp, peer), c.send(t, p, peer)}
		},
		After: func(t *vclock.Task) { c.combine(t, op, p, tmp) },
	}
}

// bwDiv resolves the per-send bandwidth divisor for all-to-all style
// traffic — the one seam between collectives and congestion modelling:
// the profile's closed-form CongestionFactor over the group's node count.
func (c ctx) bwDiv() float64 { return c.e.P.CongestionFactor(c.g.Nodes) }

// copyPhase is a local-only phase: src copied into dst, charged as a
// memcpy.
func copyPhase(e *proto.Engine, dst, src []byte) Phase {
	return Phase{Post: func(t *vclock.Task) []proto.Req {
		t.SleepF(e.P.CopyTime(len(src)))
		copy(dst, src)
		return nil
	}}
}

// rotated lists group ranks 0..n-1 starting at root: a tree rooted at
// peers[0] is then rooted at root, and rank me sits at (me-root) mod n.
func rotated(n, root int) []int {
	peers := make([]int, n)
	for i := range peers {
		peers[i] = (i + root) % n
	}
	return peers
}

func mod(a, n int) int { return (a%n + n) % n }

// Ibarrier starts a dissemination barrier.
func Ibarrier(t *vclock.Task, e *proto.Engine, g Group, tag int) *Sched {
	c := newCtx(e, g, tag)
	n := g.Size()
	var phases []Phase
	one := pay([]byte{1})
	for k := 1; k < n; k <<= 1 {
		phases = append(phases, Phase{Post: func(t *vclock.Task) []proto.Req {
			return []proto.Req{c.recv(t, pay(make([]byte, 1)), mod(g.Me-k, n)), c.send(t, one, (g.Me+k)%n)}
		}})
	}
	return start(t, e, "barrier", phases)
}

// Ibcast starts a binomial-tree broadcast of buf from root.
func Ibcast(t *vclock.Task, e *proto.Engine, g Group, buf []byte, root, tag int) *Sched {
	n := g.Size()
	phases := binomialBcastPhases(newCtx(e, g, tag), mod(g.Me-root, n), rotated(n, root), pay(buf), nil)
	return start(t, e, "bcast", phases)
}

// Ireduce starts a binomial-tree reduction into buf at root (buf is both
// contribution and, on root, the result).
func Ireduce(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, root, tag int) *Sched {
	n := g.Size()
	phases := binomialReducePhases(newCtx(e, g, tag), mod(g.Me-root, n), rotated(n, root), pay(buf), op, nil)
	return start(t, e, "reduce", phases)
}

// Iallreduce starts a recursive-doubling allreduce on buf (in place on all
// ranks).
func Iallreduce(t *vclock.Task, e *proto.Engine, g Group, buf []byte, op Combine, tag int) *Sched {
	return iallreduce(t, e, g, pay(buf), op, tag)
}

// iallreduce is recursive doubling over a payload. Non-power-of-two groups
// fold the excess ranks onto the nearest power of two first and unfold at
// the end.
func iallreduce(t *vclock.Task, e *proto.Engine, g Group, p payload, op Combine, tag int) *Sched {
	c := newCtx(e, g, tag)
	n := g.Size()
	pof2 := 1 << (bits.Len(uint(n)) - 1)
	rem := n - pof2
	me := g.Me
	var phases []Phase

	// Fold: the first 2*rem ranks pair up; odds send to evens and sit out.
	newRank := -1
	switch {
	case me < 2*rem && me%2 != 0:
		phases = append(phases, c.sendPhase(p, me-1))
	case me < 2*rem:
		phases = append(phases, c.reducePhase(p, op, me+1, false))
		newRank = me / 2
	default:
		newRank = me - rem
	}

	// Recursive doubling among the pof2 participants.
	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := newRank ^ mask
			if partner < rem {
				partner *= 2
			} else {
				partner += rem
			}
			phases = append(phases, c.reducePhase(p, op, partner, true))
		}
	}

	// Unfold: evens hand the result back to the odds.
	switch {
	case me < 2*rem && me%2 != 0:
		phases = append(phases, c.recvPhase(p, me-1))
	case me < 2*rem:
		phases = append(phases, c.sendPhase(p, me+1))
	}
	return start(t, e, "allreduce", phases)
}

// Igather starts a linear gather of equal blocks into out at root
// (len(out) = n*len(block); root's own block is copied locally).
func Igather(t *vclock.Task, e *proto.Engine, g Group, block, out []byte, root, tag int) *Sched {
	c := newCtx(e, g, tag)
	n := g.Size()
	bs := len(block)
	var phases []Phase
	if g.Me == root {
		phases = append(phases, Phase{Post: func(t *vclock.Task) []proto.Req {
			t.SleepF(e.P.CopyTime(bs))
			copy(out[root*bs:(root+1)*bs], block)
			var reqs []proto.Req
			for r := 0; r < n; r++ {
				if r != root {
					reqs = append(reqs, c.recv(t, pay(out[r*bs:(r+1)*bs]), r))
				}
			}
			return reqs
		}})
	} else {
		phases = append(phases, c.sendPhase(pay(block), root))
	}
	return start(t, e, "gather", phases)
}

// Iscatter starts a linear scatter of equal blocks from in at root into
// block on every rank.
func Iscatter(t *vclock.Task, e *proto.Engine, g Group, in, block []byte, root, tag int) *Sched {
	c := newCtx(e, g, tag)
	n := g.Size()
	bs := len(block)
	var phases []Phase
	if g.Me == root {
		phases = append(phases, Phase{Post: func(t *vclock.Task) []proto.Req {
			t.SleepF(e.P.CopyTime(bs))
			copy(block, in[root*bs:(root+1)*bs])
			var reqs []proto.Req
			for r := 0; r < n; r++ {
				if r != root {
					reqs = append(reqs, c.send(t, pay(in[r*bs:(r+1)*bs]), r))
				}
			}
			return reqs
		}})
	} else {
		phases = append(phases, c.recvPhase(pay(block), root))
	}
	return start(t, e, "scatter", phases)
}

// Iallgather starts a ring allgather: each rank contributes block; out
// receives all blocks in group-rank order.
func Iallgather(t *vclock.Task, e *proto.Engine, g Group, block, out []byte, tag int) *Sched {
	bs := len(block)
	at := func(b int) payload { return pay(out[b*bs : (b+1)*bs]) }
	phases := []Phase{copyPhase(e, at(g.Me).data, block)}
	phases = ringAllgatherPhases(newCtx(e, g, tag), g.Me, rotated(g.Size(), 0), at, phases)
	return start(t, e, "allgather", phases)
}

// Ialltoall starts a pairwise-exchange all-to-all of equal blocks: send
// holds n blocks of bs bytes (block r goes to group rank r); recv receives
// block r from rank r.
func Ialltoall(t *vclock.Task, e *proto.Engine, g Group, send, recv []byte, bs, tag int) *Sched {
	phases := pairwisePhases(newCtx(e, g, tag),
		func(r int) []byte { return send[r*bs : (r+1)*bs] },
		func(r int) []byte { return recv[r*bs : (r+1)*bs] })
	return start(t, e, "alltoall", phases)
}

// IalltoallN starts a phantom all-to-all of n-byte blocks. Unlike the
// data-carrying Ialltoall (pairwise rounds), the large-message nonblocking
// all-to-all posts all its point-to-point operations up front (the
// scattered algorithm), so the caller pays one post per peer — the reason
// the paper's FFT post time grows with node count (§4.3, Table 2).
func IalltoallN(t *vclock.Task, e *proto.Engine, g Group, bs, tag int) *Sched {
	c := newCtx(e, g, tag)
	n := g.Size()
	me := g.Me
	bwDiv := c.bwDiv()
	phases := []Phase{{Post: func(t *vclock.Task) []proto.Req {
		// The local block stays in place (the caller's own reshuffle
		// passes account for it); only the remote transfers are posted.
		// The per-call software costs are charged in one lump so that a
		// 1000-peer post is one scheduler interaction, not 2000.
		reqs := make([]proto.Req, 0, 2*(n-1))
		cost := 0.0
		for step := 1; step < n; step++ {
			op, cc := e.IrecvNCost(nil, bs, g.Ranks[mod(me-step, n)], tag, c.cc)
			cost += cc
			reqs = append(reqs, op)
		}
		for step := 1; step < n; step++ {
			op, cc := e.IsendNCost(nil, bs, g.Ranks[(me+step)%n], tag, c.cc, bwDiv)
			cost += cc
			reqs = append(reqs, op)
		}
		t.SleepF(cost)
		return reqs
	}}}
	return start(t, e, "alltoallN", phases)
}

// ---- phase builders ----------------------------------------------------
//
// One builder per algorithm, shared by every collective that runs it.
// Builders append to phases and address peers by group rank; mi is my
// position among them.

// binomialBcastPhases appends a binomial-tree broadcast of p from
// peers[0], highest bit first.
func binomialBcastPhases(c ctx, mi int, peers []int, p payload, phases []Phase) []Phase {
	n := len(peers)
	top := 1 // the root fans out from the highest bit; others below theirs
	for top < n {
		top <<= 1
	}
	for mask := 1; mask < n; mask <<= 1 {
		if mi&mask != 0 {
			top = mask
			phases = append(phases, c.recvPhase(p, peers[mi&^mask]))
			break
		}
	}
	for mask := top >> 1; mask > 0; mask >>= 1 {
		if mi&mask == 0 && mi+mask < n {
			phases = append(phases, c.sendPhase(p, peers[mi+mask]))
		}
	}
	return phases
}

// binomialReducePhases appends a binomial-tree reduction of p onto
// peers[0].
func binomialReducePhases(c ctx, mi int, peers []int, p payload, op Combine, phases []Phase) []Phase {
	n := len(peers)
	for mask := 1; mask < n; mask <<= 1 {
		if mi&mask != 0 {
			return append(phases, c.sendPhase(p, peers[mi&^mask]))
		}
		if mi|mask < n {
			phases = append(phases, c.reducePhase(p, op, peers[mi|mask], false))
		}
	}
	return phases
}

// ringReduceScatterPhases appends the shifted-ring reduce-scatter over
// blocks 0..n-1: at step s send block (mi-s-1), receive and combine block
// (mi-s-2), so after n-1 steps peer mi owns the fully reduced block mi.
func ringReduceScatterPhases(c ctx, mi int, peers []int, block func(b int) payload, op Combine, phases []Phase) []Phase {
	n := len(peers)
	left, right := peers[mod(mi-1, n)], peers[(mi+1)%n]
	for s := 0; s < n-1; s++ {
		out, dst := block(mod(mi-s-1, n)), block(mod(mi-s-2, n))
		tmp := dst.scratch()
		phases = append(phases, Phase{
			Post:  func(t *vclock.Task) []proto.Req { return []proto.Req{c.recv(t, tmp, left), c.send(t, out, right)} },
			After: func(t *vclock.Task) { c.combine(t, op, dst, tmp) },
		})
	}
	return phases
}

// ringAllgatherPhases appends the ring allgather of blocks 0..n-1, peer mi
// starting with block mi: at step s forward block (mi-s) and receive
// block (mi-s-1).
func ringAllgatherPhases(c ctx, mi int, peers []int, block func(b int) payload, phases []Phase) []Phase {
	n := len(peers)
	left, right := peers[mod(mi-1, n)], peers[(mi+1)%n]
	for s := 0; s < n-1; s++ {
		in, out := block(mod(mi-s-1, n)), block(mod(mi-s, n))
		phases = append(phases, Phase{Post: func(t *vclock.Task) []proto.Req {
			return []proto.Req{c.recv(t, in, left), c.send(t, out, right)}
		}})
	}
	return phases
}

// ringAllreducePhases appends the bandwidth-optimal ring allreduce of p:
// the reduce-scatter then the allgather over n blocks, shifted by one so
// peer mi ends the first half owning block mi+1. Every peer ends with the
// fully reduced payload; all peers must pass the same size.
func ringAllreducePhases(c ctx, mi int, peers []int, p payload, op Combine, phases []Phase) []Phase {
	n := len(peers)
	if n < 2 || p.n == 0 {
		return phases
	}
	block := func(b int) payload { return p.split((b+1)%n, n) }
	phases = ringReduceScatterPhases(c, mi, peers, block, op, phases)
	return ringAllgatherPhases(c, mi, peers, block, phases)
}

// pairwisePhases builds the pairwise-exchange all-to-all over the group: a
// local copy of my own block, then n-1 rounds where step s sends block
// me+s and receives block me-s, every send under the bisection congestion
// divisor for the group's node count.
func pairwisePhases(c ctx, sendBlock, recvBlock func(r int) []byte) []Phase {
	n, me := c.g.Size(), c.g.Me
	bwDiv := c.bwDiv()
	phases := []Phase{copyPhase(c.e, recvBlock(me), sendBlock(me))}
	for step := 1; step < n; step++ {
		to, from := (me+step)%n, mod(me-step, n)
		phases = append(phases, Phase{Post: func(t *vclock.Task) []proto.Req {
			return []proto.Req{c.recv(t, pay(recvBlock(from)), from), c.sendBW(t, pay(sendBlock(to)), to, bwDiv)}
		}})
	}
	return phases
}
