// Package fabric models the cluster interconnect in virtual time.
//
// Each rank owns a NIC with an injection (tx) and ejection (rx) port.
// A message sent at time t from src to dst is delivered to dst's inbox at
//
//	txStart = max(t, txBusy[src])         // injection serialization
//	txEnd   = txStart + bytes/bw
//	rxEnd   = max(txEnd + latency,        // wire pipeline (cut-through)
//	              rxBusy[dst] + bytes/bw) // ejection serialization (incast)
//
// which captures the three first-order effects the paper's experiments
// depend on: per-message latency, point-to-point bandwidth, and receiver-
// side congestion under fan-in (all-to-all). Under the flat (default)
// topology, global bisection contention for all-to-all traffic is
// modelled by an explicit per-send bandwidth divisor supplied by the
// collective algorithms (see model.CongestionFactor).
//
// When the profile carries an explicit topology (model.Profile.Topo),
// every inter-node message additionally resolves a deterministic route
// through the topology's link graph and serializes on each link's
// busy-until clock — the same trick the shm channel uses, generalized
// per link. The traversal is cut-through: with all links idle a message's
// tail clears the path when it clears the slowest link once,
//
//	tail(link) = max(tail(prev link),    // pipeline: no re-serialization
//	               txStart + bytes/bw(link), // slowest-link serialization
//	               busy(link) + bytes/bw(link)) // queue behind earlier tails
//
// so oversubscribed fat-tree trunks or dragonfly global links become real
// queueing points: concurrent flows sharing a trunk stack their tails on
// its busy clock. Per-link counters (messages, bytes, busy time, queueing
// wait histogram, peak queue depth) feed sim.Metrics and the Chrome trace
// counter tracks. The flat topology bypasses all of this and reproduces
// historical timelines byte-for-byte.
//
// Delivery runs as a vclock timer callback — a zero-CPU hardware agent —
// so the receiving rank spends no simulated CPU until its MPI progress
// engine actually processes the arrival. That asymmetry (the NIC delivers,
// software must notice) is precisely what creates the asynchronous-progress
// problem this paper addresses.
//
// Payloads carry real bytes: the simulation moves actual data between rank
// address spaces so that applications compute real answers.
//
// A fault.Plan installed with SetFault perturbs the wire deterministically:
// eligible packets (see Faultable) can be dropped or duplicated, NIC stall
// windows delay traffic, blackouts and rank crashes silence it. The
// protocol layer's reliable-delivery sublayer recovers from loss; the
// watchdog layer diagnoses what cannot be recovered.
package fabric

import (
	"fmt"
	"math/rand"

	"mpioffload/internal/fault"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/topo"
	"mpioffload/internal/vclock"
)

// Packet is one message in flight. Payload is interpreted by the protocol
// layer (internal/proto).
type Packet struct {
	Src, Dst int
	Bytes    int // size on the wire
	Payload  any
}

// Faultable marks payloads eligible for injected drop and duplication
// (the software-recoverable classes: the protocol layer's sequenced
// eager/control packets and their acks). Payloads without the marker model
// hardware-reliable RDMA traffic: they can be stalled or silenced by a
// crash, but never silently lost on a healthy link.
type Faultable interface{ Faultable() }

// Stats accumulates per-fabric traffic counters.
type Stats struct {
	Msgs  int64
	Bytes int64
}

// LinkStat accumulates one topology link's traffic and contention
// counters. BusyNs is the serialization time the link actually performed
// (utilization = BusyNs / elapsed); WaitNs and WaitH record the extra
// delay messages spent queued behind earlier tails on this link;
// MaxQueue is the peak number of messages simultaneously in flight on or
// queued for the link.
type LinkStat struct {
	Name      string
	Msgs      int64
	Bytes     int64
	BusyNs    float64
	WaitNs    float64
	MaxQueue  int
	FailDrops int64 // recoverable packets eaten by this link while failed
	WaitH     obs.Hist
}

// Fabric connects n ranks. It is not safe for use outside the owning
// kernel's scheduler (like everything in the simulation).
type Fabric struct {
	k       *vclock.Kernel
	prof    *model.Profile
	n       int
	txBusy  []float64
	rxBusy  []float64
	shmBusy []float64 // per-rank shared-memory channel serialization
	sink    []func(*Packet)
	nodeOf  []int
	stats   Stats
	wins    map[[2]int]any
	jitter  *rand.Rand
	inj     *fault.Injector

	// Explicit topology state (nil/empty under the flat topology).
	g         *topo.Graph
	linkBusy  []float64  // per link: busy-until clock (tail departure)
	linkQ     []int      // per link: current in-flight/queued depth
	linkStats []LinkStat // per link: traffic + contention counters
	sampler   func(ts vclock.Time, link, depth int)
}

// New builds a fabric for n ranks using profile p. Ranks are assigned to
// nodes round-robin-contiguously: rank r lives on node r / p.RanksPerNode.
// A non-flat p.Topo instantiates the topology's link graph over the node
// count; a malformed topology spec panics here, at construction, before
// any traffic flows.
func New(k *vclock.Kernel, p *model.Profile, n int) *Fabric {
	f := &Fabric{
		k:       k,
		prof:    p,
		n:       n,
		txBusy:  make([]float64, n),
		rxBusy:  make([]float64, n),
		shmBusy: make([]float64, n),
		sink:    make([]func(*Packet), n),
		nodeOf:  make([]int, n),
	}
	for r := 0; r < n; r++ {
		f.nodeOf[r] = r / p.RanksPerNode
	}
	if !p.Topo.IsFlat() {
		g, err := topo.Build(p.Topo, f.Nodes(), p.LinkBW)
		if err != nil {
			panic("fabric: " + err.Error())
		}
		f.g = g
		f.linkBusy = make([]float64, g.NumLinks())
		f.linkQ = make([]int, g.NumLinks())
		f.linkStats = make([]LinkStat, g.NumLinks())
		for i, l := range g.Links() {
			f.linkStats[i].Name = l.Name
		}
	}
	if p.LinkJitter > 0 {
		seed := p.JitterSeed
		if seed == 0 {
			seed = 0x5eed // historical default: keeps old timelines intact
		}
		f.jitter = rand.New(rand.NewSource(seed))
	}
	return f
}

// SetFault instates a fault-injection plan. Call before any traffic flows
// (the protocol engines read the injector at construction to decide whether
// to run reliable delivery). A nil plan is a no-op. A plan naming links or
// switches the active topology does not have — or naming any under the
// flat topology — panics here, at setup, before any traffic flows.
func (f *Fabric) SetFault(p *fault.Plan) {
	f.inj = fault.NewInjector(p)
	if err := f.inj.Bind(f.g); err != nil {
		panic("fabric: " + err.Error())
	}
}

// Fault returns the active fault injector (nil when no plan is set).
func (f *Fabric) Fault() *fault.Injector { return f.inj }

// FaultStats returns the injected-fault counters.
func (f *Fabric) FaultStats() fault.Stats { return f.inj.Stats() }

// RankFailed reports whether the rank has crashed by the current virtual
// time — the simulation's perfect failure detector, used by the watchdog
// layer to distinguish ErrRankFailed from a plain timeout.
func (f *Fabric) RankFailed(rank int) bool {
	return f.inj.Crashed(rank, float64(f.k.Now()))
}

// Size reports the number of ranks.
func (f *Fabric) Size() int { return f.n }

// Nodes reports the number of distinct nodes.
func (f *Fabric) Nodes() int { return (f.n + f.prof.RanksPerNode - 1) / f.prof.RanksPerNode }

// NodeOf reports the node hosting a rank.
func (f *Fabric) NodeOf(rank int) int { return f.nodeOf[rank] }

// Bind registers the delivery sink for a rank (called once by the protocol
// engine). The sink runs in timer-callback context: it must not block.
func (f *Fabric) Bind(rank int, sink func(*Packet)) {
	if f.sink[rank] != nil {
		panic(fmt.Sprintf("fabric: rank %d bound twice", rank))
	}
	f.sink[rank] = sink
}

// Stats returns traffic counters.
func (f *Fabric) Stats() Stats { return f.stats }

// Send injects a packet. bwDiv >= 1 divides the effective bandwidth for this
// message (bisection contention for all-to-all phases; pass 1 for
// point-to-point). Delivery is asynchronous; the sending task is not blocked
// (injection-port serialization is accounted in the busy-until clock, which
// models an eagerly-draining send DMA queue).
func (f *Fabric) Send(src, dst, bytes int, bwDiv float64, payload any) {
	if f.sink[dst] == nil {
		panic(fmt.Sprintf("fabric: rank %d has no sink", dst))
	}
	if bwDiv < 1 {
		bwDiv = 1
	}
	now := float64(f.k.Now())
	if f.inj != nil && (f.inj.Crashed(src, now) || f.inj.Crashed(dst, now)) {
		// A dead rank sends nothing and absorbs nothing, on any transport.
		f.inj.NoteCrashDrop()
		return
	}
	pkt := &Packet{Src: src, Dst: dst, Bytes: bytes, Payload: payload}
	f.stats.Msgs++
	f.stats.Bytes += int64(bytes)

	if f.nodeOf[src] == f.nodeOf[dst] {
		// Intra-node: shared-memory transport, no NIC involvement (and no
		// wire faults — memory does not drop packets). The destination's
		// shm channel serializes so that per-pair delivery order matches
		// send order (MPI non-overtaking relies on it).
		rxEnd := max(now+f.prof.ShmLatency, f.shmBusy[dst]) + float64(bytes)/f.prof.ShmBW
		f.shmBusy[dst] = rxEnd
		f.deliverAt(dst, rxEnd, now, pkt)
		return
	}

	// Inter-node: decide the packet's fate before it touches the wire.
	drop, dup := false, false
	if _, ok := payload.(Faultable); ok && f.inj.Lossy() {
		drop, dup = f.inj.DrawPacket()
	}
	txStart := max(now, f.txBusy[src])
	if f.inj != nil {
		until, stalled, blackout := f.inj.StallUntil(src, txStart)
		if blackout {
			f.inj.NoteBlackout()
			return
		}
		if stalled {
			f.inj.NoteStalled()
			txStart = until
		}
	}
	bw := f.prof.LinkBW / bwDiv
	lat := f.prof.LinkLatency
	if f.jitter != nil {
		lat *= 1 + f.prof.LinkJitter*(2*f.jitter.Float64()-1)
	}
	// Explicit topology: resolve the route now, steering around
	// permanently failed links once their failure has been detected.
	// routeFor may delay txStart (path migration of hardware-reliable
	// traffic) or eat the packet outright (failed link, partition).
	var route []int
	if f.g != nil {
		var ok bool
		route, txStart, ok = f.routeFor(src, dst, txStart, payload)
		if !ok {
			f.txBusy[src] = txStart + float64(bytes)/bw
			return // the injection port was still occupied
		}
	}
	txEnd := txStart + float64(bytes)/bw
	f.txBusy[src] = txEnd
	if drop {
		return // lost on the wire: the injection port was still occupied
	}
	wireEnd := txEnd
	if f.g != nil {
		// The message's tail must clear every routed link before ejection
		// can complete. Traversed once — a duplicated packet re-serializes
		// only through the ejection port below, the wire carried it once.
		wireEnd = f.traverse(route, bytes, txStart, txEnd)
	}
	deliver := func() {
		rxEnd := max(wireEnd+lat, f.rxBusy[dst]+float64(bytes)/bw)
		if f.inj != nil {
			until, stalled, blackout := f.inj.StallUntil(dst, rxEnd)
			if blackout {
				f.inj.NoteBlackout()
				return
			}
			if stalled {
				f.inj.NoteStalled()
				rxEnd = until
			}
		}
		f.rxBusy[dst] = rxEnd
		f.deliverAt(dst, rxEnd, now, pkt)
	}
	deliver()
	if dup {
		deliver() // second copy re-serializes through the ejection port
	}
}

// routeFor resolves the route a packet takes at the moment it is sent.
// On a healthy graph this is the minimal deterministic route. When the
// plan has permanently killed a link on that route, the outcome depends
// on where virtual time stands relative to the failure's detection +
// route-flap window:
//
//   - before rerouting is ready, recoverable packets are eaten by the
//     dead link (the retransmission sublayer retries them later) and
//     hardware-reliable RDMA traffic is held back until the path migrates
//     (InfiniBand APM semantics: delayed, never lost);
//   - after it, RouteAvoid supplies a surviving alternate path — or
//     reports a partition, which degrades to blackout semantics so the
//     watchdog layer owns diagnosis.
//
// Returns the route, the (possibly delayed) injection start, and whether
// the packet survives to the wire at all.
func (f *Fabric) routeFor(src, dst int, txStart float64, payload any) ([]int, float64, bool) {
	sn, dn := f.nodeOf[src], f.nodeOf[dst]
	route := f.g.Route(sn, dn)
	if !f.inj.HasLinkFaults() {
		return route, txStart, true
	}
	now := float64(f.k.Now())
	ready, deadLink := 0.0, -1
	for _, li := range route {
		if f.inj.LinkDead(li, now) {
			if deadLink < 0 {
				deadLink = li
			}
			if r, ok := f.inj.RerouteReadyAt(li); ok && r > ready {
				ready = r
			}
		}
	}
	if deadLink < 0 {
		return route, txStart, true
	}
	if now < ready {
		if _, recoverable := payload.(Faultable); recoverable {
			f.inj.NoteLinkDrop()
			f.linkStats[deadLink].FailDrops++
			return nil, txStart, false
		}
		if ready > txStart {
			txStart = ready
		}
	}
	alt, ok := f.g.RouteAvoid(sn, dn, func(li int) bool { return f.inj.LinkDead(li, now) })
	if !ok {
		f.inj.NoteBlackout()
		return nil, txStart, false
	}
	f.inj.NoteRerouted()
	return alt, txStart, true
}

// traverse serializes one inter-node message over its routed links and
// returns the virtual time the message's tail clears the last link.
// Cut-through: an idle path costs max over links of one serialization
// (relative to txStart), never their sum; a busy link stacks this tail on
// its busy-until clock, which is where trunk oversubscription turns into
// queueing delay. A transient link outage is one more lower bound on the
// tail's departure — the extra delay shows up as queueing wait.
func (f *Fabric) traverse(route []int, bytes int, txStart, txEnd float64) float64 {
	t := txEnd
	for _, li := range route {
		s := float64(bytes) / f.g.Link(li).BW
		free := max(t, txStart+s) // uncontended tail departure (pipelined)
		tl := max(free, f.linkBusy[li]+s)
		if until, stalled := f.inj.LinkOutage(li, tl-s); stalled {
			f.inj.NoteLinkStalled()
			tl = until + s
		}
		f.linkBusy[li] = tl
		st := &f.linkStats[li]
		st.Msgs++
		st.Bytes += int64(bytes)
		st.BusyNs += s
		st.WaitNs += tl - free
		st.WaitH.Observe(int64(tl - free))
		f.noteLinkOcc(li, txStart, tl)
		t = tl
	}
	return t
}

// noteLinkOcc tracks a link's in-flight depth over the message's
// occupancy window [from, to] with two timer callbacks, so peak queue
// depth and the Chrome counter track reflect true virtual-time overlap.
func (f *Fabric) noteLinkOcc(li int, from, to float64) {
	now := float64(f.k.Now())
	f.k.AfterF(from-now, func() {
		f.linkQ[li]++
		if f.linkQ[li] > f.linkStats[li].MaxQueue {
			f.linkStats[li].MaxQueue = f.linkQ[li]
		}
		if f.sampler != nil {
			f.sampler(f.k.Now(), li, f.linkQ[li])
		}
	})
	f.k.AfterF(to-now, func() {
		f.linkQ[li]--
		if f.sampler != nil {
			f.sampler(f.k.Now(), li, f.linkQ[li])
		}
	})
}

// Hierarchical reports whether an explicit (non-flat) topology is
// active — the signal topology-consulting collectives key off.
func (f *Fabric) Hierarchical() bool { return f.g != nil }

// CollBwDiv is the bandwidth divisor all-to-all style collectives apply
// per send. Under the flat topology it is the profile's analytic
// CongestionFactor closed form; under an explicit topology it is 1 —
// contention emerges from the per-link busy clocks instead of a formula.
func (f *Fabric) CollBwDiv(nodes int) float64 {
	if f.g != nil {
		return 1
	}
	return f.prof.CongestionFactor(nodes)
}

// LinkStats returns a copy of the per-link counters (nil under flat).
func (f *Fabric) LinkStats() []LinkStat {
	if f.linkStats == nil {
		return nil
	}
	out := make([]LinkStat, len(f.linkStats))
	copy(out, f.linkStats)
	return out
}

// SetLinkSampler installs a callback invoked (in timer context, in
// virtual-time order) whenever a link's in-flight depth changes. Used by
// the sim layer to feed Chrome trace counter tracks.
func (f *Fabric) SetLinkSampler(fn func(ts vclock.Time, link, depth int)) {
	f.sampler = fn
}

// PathNames describes the route between two ranks for trace attribution:
// link names for inter-node pairs under an explicit topology, ["shm"]
// for same-node pairs, nil under the flat topology.
func (f *Fabric) PathNames(src, dst int) []string {
	if f.nodeOf[src] == f.nodeOf[dst] {
		return []string{"shm"}
	}
	if f.g == nil {
		return nil
	}
	return f.g.RouteNames(f.nodeOf[src], f.nodeOf[dst])
}

// deliverAt schedules the packet's arrival, re-checking at delivery time
// that the destination is still alive (a rank can crash mid-flight).
func (f *Fabric) deliverAt(dst int, rxEnd, now float64, pkt *Packet) {
	f.k.AfterF(rxEnd-now, func() {
		if f.inj != nil && f.inj.Crashed(dst, float64(f.k.Now())) {
			f.inj.NoteCrashDrop()
			return
		}
		f.sink[dst](pkt)
	})
}

// RegisterWin records an RMA window buffer exposed by a rank; LookupWin
// retrieves it for one-sided access from any rank (the fabric is the one
// cluster-wide structure, standing in for registered/pinned memory).
func (f *Fabric) RegisterWin(winID, rank int, win any) {
	if f.wins == nil {
		f.wins = make(map[[2]int]any)
	}
	f.wins[[2]int{winID, rank}] = win
}

// LookupWin returns the window registered by rank under winID (nil if
// absent).
func (f *Fabric) LookupWin(winID, rank int) any {
	return f.wins[[2]int{winID, rank}]
}
