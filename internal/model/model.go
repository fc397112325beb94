// Package model holds the platform cost profiles that calibrate the
// simulated clusters. Every constant that turns "what happened" into
// "how long it took" lives here, in one place, so experiments are easy to
// audit and to re-calibrate.
//
// Three profiles mirror the paper's testbeds:
//
//   - Endeavor:    dual-socket Xeon E5-2697v3 nodes, InfiniBand FDR,
//     Intel MPI 5.0 (1 MPI rank per socket, 14 cores each).
//   - EndeavorPhi: Xeon Phi coprocessor (61 slow cores, same fabric);
//     software costs are several times higher per thread.
//   - Edison:      Cray XC30, Aries dragonfly, Cray MPI.
//
// The absolute values are calibrated so that the microbenchmarks land in
// the paper's reported ranges (e.g. ~140 ns offload post cost, +0.3 µs
// offload latency overhead and +11 µs comm-self overhead on Xeon, 1.7 µs
// offload overhead on Phi, 128 KB eager threshold). The *shapes* of all
// figures follow from the mechanisms in internal/proto and internal/fabric.
package model

import (
	"fmt"
	"math"
)

// Profile is a set of calibration constants for one platform.
// All times are in nanoseconds; bandwidths in bytes per nanosecond (= GB/s).
type Profile struct {
	Name string

	// ---- MPI library software costs (per call, charged to the caller) ----

	// CallOverhead is the software cost of entering the MPI library and
	// executing a trivial operation (descriptor setup, queue bookkeeping)
	// at MPI_THREAD_FUNNELED.
	CallOverhead float64
	// MatchCost is the cost of one tag-matching attempt against a queue
	// entry.
	MatchCost float64
	// MemcpyBW is the bandwidth of the internal eager-protocol buffer copy.
	MemcpyBW float64
	// RTSCost is the software cost of building/processing one rendezvous
	// control message (RTS or CTS).
	RTSCost float64
	// ProgressQuantum is the cost of one empty progress-engine iteration
	// (polling completion queues).
	ProgressQuantum float64

	// ---- MPI_THREAD_MULTIPLE lock model ----

	// MTLockAcquire is the cost of acquiring+releasing the implementation's
	// global lock when uncontended (atomic RMW, memory fences).
	MTLockAcquire float64
	// MTLockBounce is the extra cache-line transfer penalty paid per
	// *contended* acquisition (added once per waiter ahead in line).
	MTLockBounce float64
	// MTWaitSpin is how long a blocking wait loop polls the progress
	// engine inside the global lock per round before releasing it —
	// the dominant serialization of THREAD_MULTIPLE wait-heavy code.
	MTWaitSpin float64

	// ---- Offload infrastructure costs (paper §3) ----

	// EnqueueCost is the application-side cost of serializing an MPI call
	// into a command and inserting it into the lock-free command queue.
	// This is the entire post-side cost of the offload approach (Fig 4).
	EnqueueCost float64
	// DequeueCost is the offload-thread cost of popping and decoding a
	// command.
	DequeueCost float64
	// DoneFlagCost is the cost of completing a Wait by observing a done
	// flag (one cache-line read + branch).
	DoneFlagCost float64
	// PollGap is the offload thread's idle re-poll interval when both the
	// command queue is empty and no requests are in flight.
	PollGap float64
	// CommandQueueCap is the capacity of each offload command-queue shard
	// (every registered thread's private SPSC ring, and the shared MPMC
	// overflow shard, each hold this many commands). It is a bound: a full
	// shard means retry. A ring's memory is committed when its thread
	// registers (the overflow ring on the first overflow submission).
	CommandQueueCap int
	// RequestPoolSize is the size of the MPI_Request pool, a bound: an
	// exhausted pool means wait for a completion. Slots are committed, a
	// small chunk at a time, when first handed out.
	RequestPoolSize int

	// ---- comm-self progress thread model (paper §2.2) ----

	// CommSelfHold is how long the comm-self thread keeps the global lock
	// per progress burst while blocked inside MPI_Recv on the dup'd SELF
	// communicator.
	CommSelfHold float64
	// CommSelfGap is the window it leaves between bursts (lock released).
	CommSelfGap float64
	// CommSelfWindow is how long after the last communication activity a
	// progress thread keeps actively polling before parking.
	CommSelfWindow float64
	// OffloadThreadCost is the effective fraction of one application
	// thread's compute lost by dedicating a core/hardware thread to
	// communication (offload, comm-self or core-spec). Placing the
	// communication thread on a spare hardware thread makes this < 1.
	OffloadThreadCost float64

	// ---- Interconnect ----

	// EagerThreshold is the eager→rendezvous protocol switch, in bytes.
	EagerThreshold int
	// LinkLatency is the one-way wire+switch latency for any packet.
	LinkLatency float64
	// LinkJitter is the fractional uniform noise applied to each packet's
	// wire latency (0 = none). Jitter is drawn from a seeded PRNG so
	// simulations stay deterministic; per-pair FIFO delivery order is
	// preserved regardless (the NIC busy-clocks enforce it).
	LinkJitter float64
	// JitterSeed seeds the jitter PRNG. 0 selects the historical default
	// seed (0x5eed), keeping pre-existing timelines bit-identical; any
	// other value yields an independent, equally deterministic noise
	// sequence.
	JitterSeed int64
	// LinkBW is the per-NIC injection/ejection bandwidth.
	LinkBW float64
	// ShmLatency and ShmBW are the intra-node (same physical node)
	// shared-memory transport parameters.
	ShmLatency float64
	ShmBW      float64
	// BisectNodes and BisectAlpha model global contention: for all-to-all
	// style traffic across n nodes the effective per-flow bandwidth is
	// LinkBW / max(1, (n/BisectNodes))^BisectAlpha. Point-to-point halo
	// traffic is unaffected (n treated as concurrency within the op).
	BisectNodes float64
	BisectAlpha float64

	// ---- Compute ----

	// ThreadFlops is the per-thread sustained compute rate, flops per ns.
	ThreadFlops float64
	// RanksPerNode is how many MPI ranks the paper runs per node
	// (1 per socket on Endeavor, 1 per coprocessor on Phi).
	RanksPerNode int
	// ThreadsPerRank is the application thread count per rank (one is
	// sacrificed when an offload or comm-self thread is used).
	ThreadsPerRank int
	// OMPBarrier is the cost of one thread-team barrier.
	OMPBarrier float64
	// CoreSpec reports whether the platform offers a built-in progress
	// core (Cray core specialization, Fig 9b).
	CoreSpec bool
	// CoreSpecQuantum: progress period for the core-spec agent (it drives
	// progress in the kernel interrupt path, less efficiently than a
	// dedicated user-level thread).
	CoreSpecQuantum float64
}

// Endeavor models the dual-socket Xeon E5-2697v3 / InfiniBand FDR cluster.
func Endeavor() *Profile {
	return &Profile{
		Name:              "endeavor-xeon",
		CallOverhead:      160,
		MatchCost:         15,
		MemcpyBW:          8.0, // 8 GB/s single-thread internal copy
		RTSCost:           250,
		ProgressQuantum:   70,
		MTLockAcquire:     600,
		MTLockBounce:      200,
		MTWaitSpin:        600,
		EnqueueCost:       140, // paper §4.2: ~140 ns constant Isend cost
		DequeueCost:       90,
		DoneFlagCost:      40,
		PollGap:           60,
		CommandQueueCap:   4096,
		RequestPoolSize:   8192,
		CommSelfHold:      2000,
		CommSelfGap:       80,
		CommSelfWindow:    8_000,
		OffloadThreadCost: 0.5,
		EagerThreshold:    128 << 10,
		LinkLatency:       800,
		LinkBW:            6.0, // FDR ~56 Gb/s ≈ 6 GB/s effective
		ShmLatency:        300,
		ShmBW:             7.0,
		BisectNodes:       16,
		BisectAlpha:       0.45,
		ThreadFlops:       16.0, // ~16 GF/s/thread DP with FMA+AVX2
		RanksPerNode:      2,    // one rank per socket
		ThreadsPerRank:    14,
		OMPBarrier:        900,
		CoreSpec:          false,
	}
}

// EndeavorPhi models the Xeon Phi coprocessor partition: many slow cores,
// higher per-call software cost, slower single-thread copies.
func EndeavorPhi() *Profile {
	p := Endeavor()
	p.Name = "endeavor-phi"
	p.CallOverhead = 1800
	p.MatchCost = 90
	p.MemcpyBW = 1.6
	p.RTSCost = 1600
	p.ProgressQuantum = 700
	p.MTLockAcquire = 5500
	p.MTLockBounce = 2600
	p.MTWaitSpin = 4500
	p.EnqueueCost = 1700 // paper §4.5: offload overhead grows to 1.7 µs
	p.DequeueCost = 800
	p.DoneFlagCost = 350
	p.PollGap = 350
	p.CommSelfHold = 9000
	p.CommSelfGap = 2000
	p.CommSelfWindow = 30_000
	p.OffloadThreadCost = 2.0
	p.LinkLatency = 1600
	p.LinkBW = 1.5 // PCIe-attached NIC: far below the host FDR rate
	p.ShmLatency = 900
	p.ShmBW = 1.6
	p.ThreadFlops = 2.2 // slow in-order cores
	p.RanksPerNode = 1  // one rank per coprocessor
	p.ThreadsPerRank = 60
	p.OMPBarrier = 5200
	return p
}

// Edison models NERSC Edison: Cray XC30, Aries dragonfly, Cray MPI, with
// core specialization available.
func Edison() *Profile {
	p := Endeavor()
	p.Name = "edison"
	p.CallOverhead = 300
	p.MemcpyBW = 7.0
	p.LinkLatency = 500
	p.LinkBW = 8.0 // Aries ~8 GB/s injection
	p.ShmLatency = 280
	p.ShmBW = 6.5
	p.BisectNodes = 32
	p.BisectAlpha = 0.35
	p.ThreadFlops = 14.0
	p.ThreadsPerRank = 12
	p.CoreSpec = true
	p.CoreSpecQuantum = 2500
	return p
}

// ByName returns the profile for a -profile flag value.
func ByName(name string) (*Profile, error) {
	switch name {
	case "endeavor", "xeon", "endeavor-xeon":
		return Endeavor(), nil
	case "phi", "endeavor-phi", "xeonphi":
		return EndeavorPhi(), nil
	case "edison", "cray":
		return Edison(), nil
	}
	return nil, fmt.Errorf("model: unknown profile %q", name)
}

// CopyTime is the internal memcpy time for n bytes.
func (p *Profile) CopyTime(n int) float64 { return float64(n) / p.MemcpyBW }

// Eager reports whether an n-byte message uses the eager protocol.
func (p *Profile) Eager(n int) bool { return n <= p.EagerThreshold }

// CongestionFactor returns the effective-bandwidth divisor for globally
// congesting traffic (all-to-all) across n nodes.
func (p *Profile) CongestionFactor(nodes int) float64 {
	if nodes <= 0 {
		return 1
	}
	x := float64(nodes) / p.BisectNodes
	if x <= 1 {
		return 1
	}
	return math.Pow(x, p.BisectAlpha)
}
