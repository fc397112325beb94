package rt

// The flight recorder: a bounded, always-on wall-clock ring per rank that
// retains the most recent submit/issue/complete/agent transitions, so a
// watchdog trip in the real concurrent code (ErrTimeout/ErrRankFailed)
// comes with a post-mortem Chrome trace of the final milliseconds instead
// of just an error string.
//
// Design constraints, in order:
//
//  1. Disabled cost < 5 ns (one atomic load + branch), enforced by the same
//     benchmark-test discipline as internal/obs. Callers gate the hook with
//     Cluster.flightOn so argument evaluation is also skipped.
//  2. Race-clean under many concurrent writers: every slot field is an
//     atomic, and a version stamp (seqlock-style: written last, checked
//     twice around the read) lets the dump skip records torn by
//     wraparound. Two writers landing on the same slot can in principle
//     interleave field stores so that a stale version matches mixed
//     fields — that needs the ring to wrap within one hook's execution
//     window, and the worst case is one bogus diagnostic record in a
//     post-mortem, never unsafety. The recorder is best-effort by design.
//  3. Recycled pool slots must not merge distinct operations into one
//     Chrome span, so every operation gets a fresh id: slot<<32 | a
//     per-slot generation bumped at submit.
//
// The dump converts flight records into an obs.Trace through the public
// Recorder hooks and writes it with the existing Chrome exporter, so
// chrome://tracing, Perfetto, critpath.ReadChrome and cmd/tracetool all
// read flight dumps with zero new formats.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"mpioffload/internal/obs"
)

// flightKind discriminates flight-recorder records.
type flightKind uint8

const (
	fkInvalid    flightKind = iota // zero value: an unwritten slot
	fkSubmitSend                   // app thread enqueued a send command
	fkSubmitRecv                   // app thread enqueued a recv command
	fkIssueSend                    // agent dequeued + issued a send
	fkIssueRecv                    // agent dequeued + posted a recv
	fkComplete                     // operation's done flag set
	fkAgentStart                   // offload goroutine started
	fkAgentStop                    // offload goroutine exited
	fkWatchdog                     // WaitErr deadline expired
	fkKillRank                     // the rank was killed (peer = rank id)
)

// flight meta packing: kind | agent<<8 | tag<<16 (24 bits) | peer<<40
// (24 bits). Tags and peers beyond 24 bits are clamped — diagnostic
// fidelity, not correctness, is at stake.
const flightFieldMask = 1<<24 - 1

func packFlight(kind flightKind, agent, peer, tag int) uint64 {
	return uint64(kind) |
		uint64(uint8(agent))<<8 |
		uint64(tag&flightFieldMask)<<16 |
		uint64(peer&flightFieldMask)<<40
}

// flightEvent is one decoded record.
type flightEvent struct {
	ver   uint64
	ts    int64
	id    int64
	kind  flightKind
	agent int
	peer  int
	tag   int
}

func unpackFlight(ver uint64, ts, id int64, meta uint64) flightEvent {
	return flightEvent{
		ver:   ver,
		ts:    ts,
		id:    id,
		kind:  flightKind(meta & 0xFF),
		agent: int(int8(meta >> 8)), // -1 (0xFF) = no agent context
		tag:   int(meta >> 16 & flightFieldMask),
		peer:  int(meta >> 40 & flightFieldMask),
	}
}

// flightSlot is one ring entry. All fields are atomics so concurrent
// writers and the dumping reader are race-clean; ver is stored last by
// writers and read on both sides of the field reads by the dump.
type flightSlot struct {
	ver  atomic.Uint64
	ts   atomic.Int64
	id   atomic.Int64
	meta atomic.Uint64
}

// flightRingCap is the per-rank flight-recorder capacity in records.
const flightRingCap = 1 << 12

// flightRing is one rank's bounded record ring (power-of-two capacity).
type flightRing struct {
	seq  atomic.Uint64
	mask uint64
	buf  []flightSlot
}

func newFlightRing(capacity int) *flightRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &flightRing{mask: uint64(n - 1), buf: make([]flightSlot, n)}
}

// record claims the next slot and writes the record. Concurrent-safe.
func (f *flightRing) record(ts, id int64, meta uint64) {
	seq := f.seq.Add(1) // 1-based: ver 0 marks an unwritten slot
	s := &f.buf[seq&f.mask]
	s.ver.Store(0) // invalidate while the fields are in flux
	s.ts.Store(ts)
	s.id.Store(id)
	s.meta.Store(meta)
	s.ver.Store(seq)
}

// snapshot decodes every stable record, oldest first.
func (f *flightRing) snapshot() []flightEvent {
	out := make([]flightEvent, 0, len(f.buf))
	for i := range f.buf {
		s := &f.buf[i]
		v1 := s.ver.Load()
		if v1 == 0 {
			continue
		}
		ts, id, meta := s.ts.Load(), s.id.Load(), s.meta.Load()
		if s.ver.Load() != v1 {
			continue // torn by a concurrent writer; drop the record
		}
		ev := unpackFlight(v1, ts, id, meta)
		if ev.kind == fkInvalid || ev.kind > fkKillRank {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ts != out[j].ts {
			return out[i].ts < out[j].ts
		}
		return out[i].ver < out[j].ver
	})
	return out
}

// recorded reports how many records were ever written (diagnostics).
func (f *flightRing) recorded() uint64 { return f.seq.Load() }

// flight records one event on the rank's ring. Callers on hot paths gate on
// cluster.flightOn themselves (so argument evaluation is skipped too); the
// guard here keeps cold callers honest.
func (r *Rank) flight(kind flightKind, agent, peer, tag int, id int64) {
	if !r.cluster.flightOn.Load() {
		return
	}
	r.flightR.record(time.Now().UnixNano(), id, packFlight(kind, agent, peer, tag))
}

// opID returns the slot's current operation id: slot<<32 | generation.
// Generations are bumped at submit, so a recycled slot never aliases the
// previous operation's Chrome span.
func (r *Rank) opID(slot int) int64 {
	return int64(slot)<<32 | r.opGen[slot].Load()&0xFFFFFFFF
}

// SetFlightRecorder toggles the flight recorder (default on). Off, every
// hook costs one atomic load and no time.Now call.
func (c *Cluster) SetFlightRecorder(on bool) { c.flightOn.Store(on) }

// SetFlightDump sets the file an automatic post-mortem is written to when a
// watchdog surfaces ErrTimeout or ErrRankFailed ("" disables the automatic
// dump; that is the default — libraries should not create files unasked).
// Only the first trip dumps; later trips of the same incident are almost
// always consequences of the first.
func (c *Cluster) SetFlightDump(path string) {
	c.flightPath.Store(&path)
}

// autoFlightDump writes the post-mortem on the first watchdog trip, if a
// dump path is configured.
func (c *Cluster) autoFlightDump(reason string) {
	path := c.flightPath.Load()
	if path == nil || *path == "" {
		return
	}
	if !c.flightDumped.CompareAndSwap(false, true) {
		return
	}
	f, err := os.Create(*path)
	if err != nil {
		return // post-mortem is best-effort; the caller still gets its error
	}
	defer f.Close()
	c.DumpFlight(f, reason)
}

// FlightDumped reports whether the automatic post-mortem has fired.
func (c *Cluster) FlightDumped() bool { return c.flightDumped.Load() }

// DumpFlight writes the flight recorder's retained window as a Chrome
// trace_event JSON post-mortem: one process per rank, command lifecycles as
// "queued"/"mpi" spans, agent starts/stops as agent.scale instants,
// watchdog trips and rank kills as watchdog instants. Timestamps are
// rebased to the window's start. The output parses with
// critpath.ReadChrome and cmd/tracetool. Safe to call at any time,
// including while traffic is in flight (in-flux records are dropped, not
// torn).
func (c *Cluster) DumpFlight(w io.Writer, reason string) error {
	n := len(c.ranks)
	perRank := make([][]flightEvent, n)
	var base, last int64
	total, written := 0, uint64(0)
	for i, r := range c.ranks {
		evs := r.flightR.snapshot()
		perRank[i] = evs
		total += len(evs)
		written += r.flightR.recorded()
		for _, ev := range evs {
			if base == 0 || ev.ts < base {
				base = ev.ts
			}
			if ev.ts > last {
				last = ev.ts
			}
		}
	}

	// Rebase and feed through the standard recorder hooks so the export is
	// the ordinary Chrome format. The per-id submit/issue stamps reconstruct
	// queue-wait and service durations for records whose predecessor is
	// still in the window (0 otherwise — the span begins are then dropped by
	// the exporter's orphan handling, keeping the JSON valid).
	ringCap := 1
	for _, evs := range perRank {
		if len(evs) > ringCap {
			ringCap = len(evs)
		}
	}
	tr := obs.NewTrace(obs.Options{RingCap: ringCap})
	run := tr.StartRun("flight "+reason, n)
	ends := make([]int64, n)
	for i, evs := range perRank {
		rec := run.Ranks[i]
		active := 0
		submitTS := make(map[int64]int64)
		issueTS := make(map[int64]int64)
		for _, ev := range evs {
			ts := ev.ts - base
			ends[i] = ts
			switch ev.kind {
			case fkSubmitSend, fkSubmitRecv:
				rec.CmdEnqueued(ts, obs.TApp, ev.id, 0)
				submitTS[ev.id] = ts
			case fkIssueSend, fkIssueRecv:
				wait := int64(0)
				if t0, ok := submitTS[ev.id]; ok {
					wait = ts - t0
				}
				rec.CmdDequeued(ts, ev.id, 0, wait)
				issueTS[ev.id] = ts
			case fkComplete:
				svc := int64(0)
				if t0, ok := issueTS[ev.id]; ok {
					svc = ts - t0
				}
				rec.CmdCompleted(ts, ev.id, 0, svc)
			case fkAgentStart:
				active++
				rec.AgentScaled(ts, active, +1)
			case fkAgentStop:
				active--
				rec.AgentScaled(ts, active, -1)
			case fkWatchdog, fkKillRank:
				rec.WatchdogTripped(ts, ev.peer)
			}
		}
	}
	run.SetEnd(last-base, ends)
	meta, _ := json.Marshal(map[string]any{
		"reason":       reason,
		"wall_base_ns": base,
		"events":       total,
		"recorded":     written,
		"mode":         c.mode.String(),
		"agents":       c.AgentsPerRank(),
	})
	tr.AddMeta("flight", meta)
	if err := obs.WriteChrome(w, tr); err != nil {
		return fmt.Errorf("rt: flight dump: %w", err)
	}
	return nil
}
