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
// side congestion under fan-in (all-to-all). Global bisection contention
// for all-to-all traffic is modelled by an explicit per-send bandwidth
// divisor supplied by the collective algorithms (the closed form
// model.Profile.CongestionFactor).
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
// The wire is reliable, as InfiniBand and Aries fabrics are in hardware:
// nothing is lost, duplicated or reordered within a pair. The one failure
// is a rank crash, installed with SetCrashes at a fixed virtual time: a
// dead rank sends nothing and receives nothing, on any transport, while
// its software keeps executing (it cannot know it is dead). The protocol
// layer's watchdog diagnoses the requests a crash leaves hanging.
package fabric

import (
	"fmt"
	"math"
	"math/rand"

	"mpioffload/internal/model"
	"mpioffload/internal/vclock"
)

// Packet is one message in flight. Payload is interpreted by the protocol
// layer (internal/proto).
type Packet struct {
	Src, Dst int
	Bytes    int // size on the wire
	Payload  any
}

// Crash kills a rank at virtual time At: from then on the fabric delivers
// nothing to it and nothing from it.
type Crash struct {
	Rank int
	At   float64
}

// Stats accumulates per-fabric traffic counters.
type Stats struct {
	Msgs  int64
	Bytes int64
	// CrashDrops counts packets silenced by a rank crash.
	CrashDrops int64
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
	jitter  *rand.Rand
	crashAt []float64 // rank → crash time; nil when no rank crashes
}

// New builds a fabric for n ranks using profile p. Ranks are assigned to
// nodes round-robin-contiguously: rank r lives on node r / p.RanksPerNode.
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
	if p.LinkJitter > 0 {
		seed := p.JitterSeed
		if seed == 0 {
			seed = 0x5eed // historical default: keeps old timelines intact
		}
		f.jitter = rand.New(rand.NewSource(seed))
	}
	return f
}

// SetCrashes installs the run's crash table; a rank listed twice dies at
// its earliest time. Call before any traffic flows. An empty list is a
// no-op.
func (f *Fabric) SetCrashes(cs []Crash) {
	if len(cs) == 0 {
		return
	}
	f.crashAt = make([]float64, f.n)
	for r := range f.crashAt {
		f.crashAt[r] = math.Inf(1)
	}
	for _, c := range cs {
		f.crashAt[c.Rank] = min(f.crashAt[c.Rank], c.At)
	}
}

// Crashed reports whether the rank is dead at virtual time at.
func (f *Fabric) Crashed(rank int, at float64) bool {
	return f.crashAt != nil && at >= f.crashAt[rank]
}

// RankFailed reports whether the rank has crashed by the current virtual
// time — the simulation's perfect failure detector, used by the watchdog
// layer to distinguish ErrRankFailed from a plain timeout.
func (f *Fabric) RankFailed(rank int) bool {
	return f.Crashed(rank, float64(f.k.Now()))
}

// Size reports the number of ranks.
func (f *Fabric) Size() int { return f.n }

// Nodes reports the number of distinct nodes.
func (f *Fabric) Nodes() int { return (f.n + f.prof.RanksPerNode - 1) / f.prof.RanksPerNode }

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
	if f.Crashed(src, now) || f.Crashed(dst, now) {
		// A dead rank sends nothing and absorbs nothing, on any transport.
		f.stats.CrashDrops++
		return
	}
	pkt := &Packet{Src: src, Dst: dst, Bytes: bytes, Payload: payload}
	f.stats.Msgs++
	f.stats.Bytes += int64(bytes)

	if f.nodeOf[src] == f.nodeOf[dst] {
		// Intra-node: shared-memory transport, no NIC involvement. The
		// destination's shm channel serializes so that per-pair delivery
		// order matches send order (MPI non-overtaking relies on it).
		rxEnd := max(now+f.prof.ShmLatency, f.shmBusy[dst]) + float64(bytes)/f.prof.ShmBW
		f.shmBusy[dst] = rxEnd
		f.deliverAt(dst, rxEnd, now, pkt)
		return
	}

	txStart := max(now, f.txBusy[src])
	bw := f.prof.LinkBW / bwDiv
	lat := f.prof.LinkLatency
	if f.jitter != nil {
		lat *= 1 + f.prof.LinkJitter*(2*f.jitter.Float64()-1)
	}
	txEnd := txStart + float64(bytes)/bw
	f.txBusy[src] = txEnd
	rxEnd := max(txEnd+lat, f.rxBusy[dst]+float64(bytes)/bw)
	f.rxBusy[dst] = rxEnd
	f.deliverAt(dst, rxEnd, now, pkt)
}

// deliverAt schedules the packet's arrival, re-checking at delivery time
// that the destination is still alive (a rank can crash mid-flight).
func (f *Fabric) deliverAt(dst int, rxEnd, now float64, pkt *Packet) {
	f.k.AfterF(rxEnd-now, func() {
		if f.RankFailed(dst) {
			f.stats.CrashDrops++
			return
		}
		f.sink[dst](pkt)
	})
}
