// Package fault defines deterministic fault-injection plans for the
// simulated cluster: seeded packet drop and duplication, NIC stall and
// blackout windows, and whole-rank crashes at fixed virtual times.
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
package fault

import "math/rand"

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
}

// Lossy reports whether the plan can lose or duplicate packets, i.e.
// whether the protocol layer must run its reliable-delivery sublayer.
func (p *Plan) Lossy() bool {
	return p != nil && (p.DropRate > 0 || p.DupRate > 0)
}

// Stats counts injected faults.
type Stats struct {
	Dropped      int64 // packets lost to DropRate
	Duplicated   int64 // packets delivered twice
	Stalled      int64 // packets delayed by a stall window
	BlackoutDrop int64 // packets lost to a permanent blackout
	CrashDrop    int64 // packets silenced by a rank crash
}

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

// BackoffJitter returns a deterministic jitter fraction in [0, 0.25) for
// one retransmission backoff, de-synchronizing senders that lost packets
// at the same moment. It draws from a PRNG separate from the
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
