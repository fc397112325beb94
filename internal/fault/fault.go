// Package fault defines deterministic fault-injection plans for the
// simulated cluster: seeded packet drop and duplication, NIC stall and
// blackout windows, whole-rank crashes at fixed virtual times, and
// topology-aware outages of named links and switches.
//
// A Plan is pure configuration; an Injector is its per-run instantiation,
// owned by the fabric. All randomness comes from a single PRNG seeded from
// the plan, and the simulation kernel is sequentially deterministic, so the
// same plan against the same workload produces the *identical* fault
// timeline — every drop, duplicate and retransmission replays exactly.
// That is what makes resilience regressions bisectable.
//
// The fault model mirrors where real systems fail:
//
//   - Drop/duplicate apply only to inter-node packets the protocol layer
//     marks as software-recoverable (eager data and rendezvous control —
//     see fabric.Faultable); RDMA bulk transfers model a hardware-reliable
//     channel and are never silently lost.
//   - A Stall window delays every packet through a rank's NIC until the
//     window closes; a window with End <= Start is a permanent blackout
//     (packets are dropped forever — a dead link, not a dead host).
//   - A Crash silences a rank entirely from time At: nothing it sends is
//     delivered and nothing sent to it arrives, on any transport. The rank's
//     software keeps executing (it cannot know it is dead), which is exactly
//     the survivor's-eye view the watchdog layer must diagnose.
//   - A LinkDown takes one named topology link out of service, transiently
//     (traffic waits out the window) or permanently (the fabric detects the
//     failure after Detect+Flap ns and reroutes over surviving paths; a
//     destination with no surviving path degrades to blackout semantics).
//     A SwitchDown fails every link incident to a named switch at once.
//     These require an explicit topology and are validated by Bind.
package fault

import (
	"fmt"
	"math/rand"

	"mpioffload/internal/topo"
)

// Default reroute-latency model: a permanently failed link keeps eating
// in-flight traffic for DefaultDetect ns (failure detection) plus
// DefaultFlap ns (route recomputation / flap damping) before survivors'
// routes actually avoid it.
const (
	DefaultDetect = 2_000.0
	DefaultFlap   = 3_000.0
)

// Stall is a NIC outage window for one rank: packets entering or leaving
// the rank's NIC between Start and End (virtual ns) are delayed until End.
// End <= Start means a permanent blackout starting at Start: such packets
// are dropped instead. Rank -1 applies the window to every rank.
type Stall struct {
	Rank       int
	Start, End float64
}

// Blackout reports whether the window is a permanent outage.
func (s Stall) Blackout() bool { return s.End <= s.Start }

// Crash kills a rank at virtual time At: from then on the fabric delivers
// nothing to it and nothing from it.
type Crash struct {
	Rank int
	At   float64
}

// LinkDown is an outage of one named topology link (e.g. "leaf0.up0",
// "grp0-grp1"). With End > Start the link is transiently down: traffic
// routed over it during the window waits until End. With End <= Start the
// link fails permanently at Start: after the detection + route-flap delay
// the fabric reroutes around it; until then recoverable packets on the
// link are lost (the retransmit layer recovers them) and hardware-reliable
// RDMA traffic is held back, as with InfiniBand automatic path migration.
type LinkDown struct {
	Link       string
	Start, End float64
}

// SwitchDown fails every link incident to a named switch ("leaf1" for a
// fat-tree leaf, "grp2" for a dragonfly group, "sw0" for a custom switch)
// with LinkDown window semantics. A permanent switch failure partitions
// the switch's member nodes: traffic to them degrades to blackout drops
// and the watchdog layer diagnoses the peers as unreachable.
type SwitchDown struct {
	Switch     string
	Start, End float64
}

// Plan is a deterministic fault schedule for one simulation run.
// The zero value injects nothing.
type Plan struct {
	// Seed seeds the drop/duplication PRNG. Same seed, same plan, same
	// workload => identical timeline.
	Seed int64
	// DropRate is the probability an eligible packet is lost on the wire.
	DropRate float64
	// DupRate is the probability an eligible packet is delivered twice.
	DupRate float64
	// Stalls are NIC outage windows.
	Stalls []Stall
	// Crashes are whole-rank failures.
	Crashes []Crash
	// Links are named-link outages. They require an explicit topology;
	// Injector.Bind validates the names against the active graph.
	Links []LinkDown
	// Switches fail every link incident to a named switch at once.
	Switches []SwitchDown
	// Detect is the failure-detection delay (ns) before the fabric starts
	// rerouting around a permanently failed link (<= 0: DefaultDetect).
	Detect float64
	// Flap is the route-recomputation window (ns) after detection during
	// which routes are still settling (<= 0: DefaultFlap).
	Flap float64
}

// Lossy reports whether the plan can lose or duplicate packets, i.e.
// whether the protocol layer must run its reliable-delivery sublayer.
// Link and switch outages count: a failed link eats in-flight packets
// during the detection window, so recovery needs retransmission.
func (p *Plan) Lossy() bool {
	return p != nil && (p.DropRate > 0 || p.DupRate > 0 ||
		len(p.Links) > 0 || len(p.Switches) > 0)
}

// Stats counts injected faults.
type Stats struct {
	Dropped      int64 // packets lost to DropRate
	Duplicated   int64 // packets delivered twice
	Stalled      int64 // packets delayed by a stall window
	BlackoutDrop int64 // packets lost to a permanent blackout or partition
	CrashDrop    int64 // packets silenced by a rank crash
	LinkStalled  int64 // packets delayed by a transient link outage
	LinkDrop     int64 // packets eaten by a failed link pre-detection
	Rerouted     int64 // packets carried by a recomputed alternate route
}

// linkWindow is one resolved transient outage of a link.
type linkWindow struct{ start, end float64 }

// Injector is a Plan bound to one simulation run: it owns the seeded PRNG
// and the fault counters. It must only be used from the owning kernel's
// scheduler (like everything in the simulation).
type Injector struct {
	plan    *Plan
	rng     *rand.Rand
	backoff *rand.Rand
	stats   Stats

	// Per-rank lookup tables (built once in NewInjector — Crashed and
	// StallUntil run on every packet, so no linear scans).
	crashAt    map[int]float64 // rank → earliest crash time
	stallByRnk map[int][]Stall // rank → its stall windows (blackouts first)
	stallAll   []Stall         // rank -1 windows, applying to everyone

	// Link-fault tables, resolved against the topology graph by Bind.
	linkWin    map[int][]linkWindow // link id → transient outage windows
	linkFailAt map[int]float64      // link id → earliest permanent failure
}

// NewInjector instantiates a plan. A nil plan yields a nil injector, which
// every query method treats as "no faults".
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{
		plan: p,
		rng:  rand.New(rand.NewSource(p.Seed)),
		// The backoff-jitter stream is deliberately separate: drawing
		// jitter from the packet-fate PRNG would shift which packets drop.
		backoff: rand.New(rand.NewSource(p.Seed ^ 0x6a09e667f3bcc908)),
	}
	if len(p.Crashes) > 0 {
		in.crashAt = make(map[int]float64, len(p.Crashes))
		for _, c := range p.Crashes {
			if t, ok := in.crashAt[c.Rank]; !ok || c.At < t {
				in.crashAt[c.Rank] = c.At
			}
		}
	}
	for _, s := range p.Stalls {
		if s.Rank == -1 {
			in.stallAll = append(in.stallAll, s)
			continue
		}
		if in.stallByRnk == nil {
			in.stallByRnk = make(map[int][]Stall)
		}
		in.stallByRnk[s.Rank] = append(in.stallByRnk[s.Rank], s)
	}
	return in
}

// Stats returns the fault counters accumulated so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Lossy reports whether drop or duplication is configured.
func (in *Injector) Lossy() bool { return in != nil && in.plan.Lossy() }

// Bind resolves the plan's named link and switch faults against the
// active topology graph, expanding switch outages into their incident
// links. It is an error to carry link or switch faults without an
// explicit topology, or to name a link or switch the graph does not have
// — validated here, before any traffic flows.
func (in *Injector) Bind(g *topo.Graph) error {
	if in == nil || (len(in.plan.Links) == 0 && len(in.plan.Switches) == 0) {
		return nil
	}
	if g == nil {
		return fmt.Errorf("fault: plan has link/switch faults but the run has no explicit topology")
	}
	in.linkWin = make(map[int][]linkWindow)
	in.linkFailAt = make(map[int]float64)
	add := func(li int, start, end float64) {
		if end <= start { // permanent failure
			if t, ok := in.linkFailAt[li]; !ok || start < t {
				in.linkFailAt[li] = start
			}
			return
		}
		in.linkWin[li] = append(in.linkWin[li], linkWindow{start, end})
	}
	for _, ld := range in.plan.Links {
		li, ok := g.LinkID(ld.Link)
		if !ok {
			return fmt.Errorf("fault: plan names unknown link %q", ld.Link)
		}
		add(li, ld.Start, ld.End)
	}
	for _, sd := range in.plan.Switches {
		links, ok := g.SwitchLinks(sd.Switch)
		if !ok {
			return fmt.Errorf("fault: plan names unknown switch %q", sd.Switch)
		}
		for _, li := range links {
			add(li, sd.Start, sd.End)
		}
	}
	return nil
}

// HasLinkFaults reports whether any link or switch outage is planned.
func (in *Injector) HasLinkFaults() bool {
	return in != nil && (len(in.plan.Links) > 0 || len(in.plan.Switches) > 0)
}

// LinkOutage resolves the transient outage windows covering link li at
// virtual time at: a packet serializing then waits until the returned
// time before the link carries it.
func (in *Injector) LinkOutage(li int, at float64) (until float64, stalled bool) {
	if in == nil || in.linkWin == nil {
		return at, false
	}
	until = at
	for _, w := range in.linkWin[li] {
		if at >= w.start && at < w.end && w.end > until {
			until = w.end
		}
	}
	return until, until > at
}

// LinkFailedAt returns the link's permanent failure time, if it has one.
func (in *Injector) LinkFailedAt(li int) (float64, bool) {
	if in == nil || in.linkFailAt == nil {
		return 0, false
	}
	t, ok := in.linkFailAt[li]
	return t, ok
}

// LinkDead reports whether the link has permanently failed by time at.
func (in *Injector) LinkDead(li int, at float64) bool {
	t, ok := in.LinkFailedAt(li)
	return ok && at >= t
}

// DetectDelay is the failure-detection delay before rerouting begins.
func (in *Injector) DetectDelay() float64 {
	if in == nil || in.plan.Detect <= 0 {
		return DefaultDetect
	}
	return in.plan.Detect
}

// FlapWindow is the route-recomputation window after detection.
func (in *Injector) FlapWindow() float64 {
	if in == nil || in.plan.Flap <= 0 {
		return DefaultFlap
	}
	return in.plan.Flap
}

// RerouteReadyAt returns the virtual time rerouting around a permanently
// failed link becomes effective: failure + detection + route flap.
// ok is false when the link never fails.
func (in *Injector) RerouteReadyAt(li int) (float64, bool) {
	t, ok := in.LinkFailedAt(li)
	if !ok {
		return 0, false
	}
	return t + in.DetectDelay() + in.FlapWindow(), true
}

// BackoffJitter returns a deterministic jitter fraction in [0, 0.25) for
// one retransmission backoff, de-synchronizing senders that lost packets
// on the same failed link. It draws from a PRNG separate from the
// packet-fate stream, so enabling jitter never changes which packets drop
// or duplicate. Nil-safe: no plan, no jitter.
func (in *Injector) BackoffJitter() float64 {
	if in == nil {
		return 0
	}
	return in.backoff.Float64() * 0.25
}

// DrawPacket decides the fate of one eligible packet: lost, duplicated, or
// neither. Both draws always happen so the PRNG stream depends only on the
// packet sequence, not on which rates are zero.
func (in *Injector) DrawPacket() (drop, dup bool) {
	drop = in.rng.Float64() < in.plan.DropRate
	dup = in.rng.Float64() < in.plan.DupRate
	if drop {
		in.stats.Dropped++
		return true, false
	}
	if dup {
		in.stats.Duplicated++
	}
	return false, dup
}

// Crashed reports whether the rank is dead at virtual time at.
func (in *Injector) Crashed(rank int, at float64) bool {
	if in == nil || in.crashAt == nil {
		return false
	}
	t, ok := in.crashAt[rank]
	return ok && at >= t
}

// StallUntil resolves the stall windows covering the rank's NIC at virtual
// time at: it returns the time the NIC comes back (delay the packet until
// then), or blackout=true if a permanent window has begun (drop it).
func (in *Injector) StallUntil(rank int, at float64) (until float64, stalled, blackout bool) {
	if in == nil {
		return 0, false, false
	}
	until = at
	for _, windows := range [2][]Stall{in.stallByRnk[rank], in.stallAll} {
		for _, s := range windows {
			if at < s.Start {
				continue
			}
			if s.Blackout() {
				return 0, false, true
			}
			if at < s.End && s.End > until {
				until = s.End
			}
		}
	}
	return until, until > at, false
}

// NoteStalled / NoteBlackout / NoteCrashDrop record faults decided by the
// fabric (the injector cannot see packet routing itself).
func (in *Injector) NoteStalled() { in.stats.Stalled++ }

// NoteBlackout records a packet lost to a permanent blackout window.
func (in *Injector) NoteBlackout() { in.stats.BlackoutDrop++ }

// NoteCrashDrop records a packet silenced by a rank crash.
func (in *Injector) NoteCrashDrop() { in.stats.CrashDrop++ }

// NoteLinkStalled records a packet delayed by a transient link outage.
func (in *Injector) NoteLinkStalled() { in.stats.LinkStalled++ }

// NoteLinkDrop records a packet eaten by a permanently failed link before
// rerouting took effect.
func (in *Injector) NoteLinkDrop() { in.stats.LinkDrop++ }

// NoteRerouted records a packet carried by a recomputed alternate route.
func (in *Injector) NoteRerouted() { in.stats.Rerouted++ }
