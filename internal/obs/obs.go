// Package obs is the offload engine's observability layer: a low-overhead,
// virtual-time-stamped event tracer plus per-layer metrics counters.
//
// A Trace is created per experiment and attached to simulated clusters via
// sim.Config.Trace; each sim.Run registers one RunTrace holding a Recorder
// per rank. Instrumentation hooks in internal/core (offload loop),
// internal/queue, internal/reqpool, internal/proto (eager/rendezvous/
// watchdog) and package mpi call Recorder methods; every
// hook is nil-safe, so the cost of a hook on a run without a trace is a
// nil check (see TestDisabledHookOverhead).
//
// Events live in a fixed-capacity per-rank ring buffer (oldest entries are
// overwritten; the drop count is reported). Timestamps are virtual
// nanoseconds from the vclock kernel, so traces are bit-deterministic for a
// given configuration and seed. WriteChrome exports the Chrome trace_event
// JSON consumed by chrome://tracing and Perfetto; Summary renders a compact
// text digest.
package obs

import "strings"

// Kind discriminates trace events.
type Kind uint8

// Event kinds. The command-lifecycle kinds (Enqueue/Dequeue/Complete) form
// the enqueue→issue→complete spans of the offload path; the rest are
// instants on the rank's timeline.
const (
	EvCmdEnqueue  Kind = iota + 1 // A=cmd id, B=queue depth after enqueue
	EvCmdDequeue                  // A=cmd id, B=queue depth after dequeue
	EvCmdComplete                 // A=cmd id
	EvIssueEager                  // A=bytes, B=peer
	EvIssueRdv                    // A=bytes, B=peer (RTS emitted)
	EvIssueRecv                   // A=declared bytes, B=peer (AnySource = -1)
	EvCTS                         // A=bytes, B=peer (CTS answered to an RTS)
	EvRdvFin                      // A=bytes, B=peer (rendezvous data landed)
	EvWatchdog                    // A=peer (request failed by the watchdog)
	EvConvert                     // blocking call converted to nonblocking
	EvDeliver                     // A=bytes, B=src (flow-stamped packet hit the NIC)
	EvEagerLand                   // A=bytes, B=src (eager payload landed in a recv)
	EvRdvStart                    // A=bytes, B=peer (sender processed CTS, RDMA starts)
)

// String names the kind as it appears in exported traces.
func (k Kind) String() string {
	switch k {
	case EvCmdEnqueue:
		return "cmd.enqueue"
	case EvCmdDequeue:
		return "cmd.dequeue"
	case EvCmdComplete:
		return "cmd.complete"
	case EvIssueEager:
		return "issue.eager"
	case EvIssueRdv:
		return "issue.rdv"
	case EvIssueRecv:
		return "issue.recv"
	case EvCTS:
		return "cts"
	case EvRdvFin:
		return "rdv.fin"
	case EvWatchdog:
		return "watchdog"
	case EvConvert:
		return "convert"
	case EvDeliver:
		return "deliver"
	case EvEagerLand:
		return "eager.land"
	case EvRdvStart:
		return "rdv.start"
	}
	return "unknown"
}

// Thread classes: every event is attributed to the class of simulated
// thread that produced it.
const (
	TApp   uint8 = iota // application (master or team) thread
	TAgent              // dedicated agent: offload, comm-self or core-spec
	TNIC                // NIC/timer context (no simulated CPU)
	NumTID
)

// TIDName names a thread class as it appears in exported traces.
func TIDName(tid uint8) string {
	switch tid {
	case TApp:
		return "app"
	case TAgent:
		return "agent"
	case TNIC:
		return "nic"
	}
	return "?"
}

// TaskClass classifies a vclock task by its name: the dedicated
// communication threads spawned by the sim layer are agents, everything
// else is application.
func TaskClass(name string) uint8 {
	if strings.HasPrefix(name, "offload.") ||
		strings.HasPrefix(name, "commself.") ||
		strings.HasPrefix(name, "corespec.") {
		return TAgent
	}
	return TApp
}

// Event is one trace record: a virtual timestamp, a kind, the producing
// thread class, two kind-specific arguments, and the causal flow the event
// belongs to (0 = none).
type Event struct {
	TS   int64 // virtual ns
	A, B int64
	// Flow is the causal flow id linking a sender-side issue event to the
	// receiver-side landing/completion events of the same message (see
	// FlowID). 0 means the event is not part of a message flow.
	Flow int64
	Kind Kind
	TID  uint8
}

// FlowID packs the causal flow stamp carried by every protocol message:
// (src rank + 1) << 32 | the low 32 bits of the sender's sequence number,
// never 0. The simulated engine and the real transport stamp identically,
// so traces from either world correlate.
func FlowID(src int, seq uint64) int64 {
	return int64(src+1)<<32 | int64(seq&0xFFFFFFFF)
}

// RankMetrics are the per-rank counters the recorder accumulates. The sim
// layer folds them (together with the always-on engine/offloader/queue
// counters) into sim.Metrics.
type RankMetrics struct {
	Rank int

	// Event-buffer accounting.
	Events        int64 // events recorded (including overwritten ones)
	EventsDropped int64 // events overwritten after the ring wrapped

	// Command-path counts observed by the tracer.
	CmdEnq, CmdDeq, CmdDone int64

	// Offload-thread duty cycle, split into issuing commands, driving
	// MPI_Testany-style progress, and idling (virtual ns).
	IssueNs, ProgressNs, IdleNs int64
	// Batched draining: DrainBatches counts offload-thread wakeups that
	// issued at least one command; BatchedCmds sums the commands those
	// wakeups drained, so BatchedCmds/DrainBatches is the mean drain batch
	// size.
	DrainBatches, BatchedCmds int64
	// TestanyPolls counts offload-thread progress rounds taken with
	// requests in flight; with CmdDone it yields polls-per-completion.
	TestanyPolls int64

	// Per-thread-class attribution of MPI activity.
	IssuesByTID   [NumTID]int64 // Isend/Irecv posts entering the engine
	ProgressByTID [NumTID]int64 // progress-engine invocations

	// Protocol-path counts observed by the tracer.
	Conversions   int64 // blocking→nonblocking conversions (offload §3.3)
	WatchdogTrips int64

	// Causal-flow accounting: messages stamped with a flow id on issue, and
	// flows observed landing at this rank (eager payload copied out or
	// rendezvous data noticed by software).
	FlowsSent   int64
	FlowsLanded int64

	// Per-op latency decomposition (log2-bucketed, virtual ns):
	// queue-wait (cmd enqueue→dequeue), offload service (dequeue→complete),
	// network transit (wire send→NIC delivery), and rendezvous-handshake
	// round trip (RTS post→CTS processed by the sender).
	QueueWaitH Hist
	ServiceH   Hist
	TransitH   Hist
	RdvRttH    Hist
}

// Add accumulates o into m (Rank is left alone).
func (m *RankMetrics) Add(o RankMetrics) {
	m.Events += o.Events
	m.EventsDropped += o.EventsDropped
	m.CmdEnq += o.CmdEnq
	m.CmdDeq += o.CmdDeq
	m.CmdDone += o.CmdDone
	m.IssueNs += o.IssueNs
	m.ProgressNs += o.ProgressNs
	m.IdleNs += o.IdleNs
	m.DrainBatches += o.DrainBatches
	m.BatchedCmds += o.BatchedCmds
	m.TestanyPolls += o.TestanyPolls
	for i := range m.IssuesByTID {
		m.IssuesByTID[i] += o.IssuesByTID[i]
	}
	for i := range m.ProgressByTID {
		m.ProgressByTID[i] += o.ProgressByTID[i]
	}
	m.Conversions += o.Conversions
	m.WatchdogTrips += o.WatchdogTrips
	m.FlowsSent += o.FlowsSent
	m.FlowsLanded += o.FlowsLanded
	m.QueueWaitH.Add(o.QueueWaitH)
	m.ServiceH.Add(o.ServiceH)
	m.TransitH.Add(o.TransitH)
	m.RdvRttH.Add(o.RdvRttH)
}

// Options configures a Trace.
type Options struct {
	// RingCap is the per-rank event-buffer capacity (default 1<<14).
	// Oldest events are overwritten once it fills.
	RingCap int
}

// Trace collects the observability data of one experiment: one RunTrace
// per sim.Run executed with the trace attached.
type Trace struct {
	opts Options
	Runs []*RunTrace
	// Meta holds extra JSON objects embedded (in insertion order, for
	// byte-determinism) in the Chrome export's metadata block — critical-path
	// reports, experiment parameters.
	Meta []MetaEntry
}

// MetaEntry is one user-attached metadata object for the Chrome export.
type MetaEntry struct {
	Key  string
	JSON []byte // must be a valid JSON value
}

// AddMeta attaches a JSON value under key to the Chrome export's metadata
// block.
func (tr *Trace) AddMeta(key string, raw []byte) {
	tr.Meta = append(tr.Meta, MetaEntry{Key: key, JSON: raw})
}

// RunTrace holds one simulation run's recorders, one per rank, plus the
// run's end-of-time bookkeeping (filled by sim.Run via SetEnd).
type RunTrace struct {
	Label string
	Ranks []*Recorder

	// ElapsedNs is the run's total virtual time; RankEndNs the per-rank
	// finish times. Zero until SetEnd is called. The critical-path analyzer
	// anchors its backward walk here.
	ElapsedNs int64
	RankEndNs []int64
}

// SetEnd records the run's elapsed virtual time and per-rank finish times.
func (run *RunTrace) SetEnd(elapsed int64, rankEnd []int64) {
	run.ElapsedNs = elapsed
	run.RankEndNs = append(run.RankEndNs[:0], rankEnd...)
}

// NewTrace returns an empty trace.
func NewTrace(opts Options) *Trace {
	if opts.RingCap <= 0 {
		opts.RingCap = 1 << 14
	}
	return &Trace{opts: opts}
}

// StartRun registers a new run of n ranks and returns its recorders.
func (tr *Trace) StartRun(label string, n int) *RunTrace {
	run := &RunTrace{Label: label, Ranks: make([]*Recorder, n)}
	for r := 0; r < n; r++ {
		run.Ranks[r] = &Recorder{
			rank: r,
			ring: make([]Event, tr.opts.RingCap),
		}
	}
	tr.Runs = append(tr.Runs, run)
	return run
}

// Recorder is the per-rank event ring plus metric counters. The nil
// recorder is valid and permanently disabled: every hook is nil-safe, and
// a disabled hook costs a nil check.
type Recorder struct {
	rank int
	ring []Event
	n    uint64 // total events pushed (ring index = n % cap)
	M    RankMetrics
}

// Enabled reports whether the recorder is live. This is the whole cost of
// a disabled hook: a nil check.
func (r *Recorder) Enabled() bool { return r != nil }

// Rank returns the recorder's rank.
func (r *Recorder) Rank() int { return r.rank }

// Metrics returns a copy of the accumulated counters with the
// event-accounting fields brought up to date.
func (r *Recorder) Metrics() RankMetrics {
	if r == nil {
		return RankMetrics{}
	}
	m := r.M
	m.Rank = r.rank
	m.Events = int64(r.n)
	if d := int64(r.n) - int64(len(r.ring)); d > 0 {
		m.EventsDropped = d
	}
	return m
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	c := uint64(len(r.ring))
	if r.n <= c {
		out := make([]Event, r.n)
		copy(out, r.ring[:r.n])
		return out
	}
	out := make([]Event, 0, c)
	start := r.n % c
	out = append(out, r.ring[start:]...)
	out = append(out, r.ring[:start]...)
	return out
}

func (r *Recorder) push(ev Event) {
	r.ring[r.n%uint64(len(r.ring))] = ev
	r.n++
}

// ---- hooks -------------------------------------------------------------
//
// Every hook self-gates on Enabled; callers just call them. Hooks that
// record both an event and counters still pay only one atomic load. A hook
// that also observes a histogram is too large for the inliner, so its gate
// is a separate one-line method and the recording body is outlined
// (go:noinline, or the inliner folds it back in and the gate grows past the
// budget again): the disabled call stays an inlined nil check at the call
// site.

// CmdEnqueued records a command entering the offload queue.
func (r *Recorder) CmdEnqueued(ts int64, tid uint8, id int64, depth int) {
	if !r.Enabled() {
		return
	}
	r.M.CmdEnq++
	r.push(Event{TS: ts, Kind: EvCmdEnqueue, TID: tid, A: id, B: int64(depth)})
}

// CmdDequeued records the offload thread popping a command; waitNs is the
// command's queue wait (enqueue→dequeue), observed into the queue-wait
// histogram.
func (r *Recorder) CmdDequeued(ts int64, id int64, depth int, waitNs int64) {
	if r.Enabled() {
		r.cmdDequeued(ts, id, depth, waitNs)
	}
}

//go:noinline
func (r *Recorder) cmdDequeued(ts int64, id int64, depth int, waitNs int64) {
	r.M.CmdDeq++
	r.M.QueueWaitH.Observe(waitNs)
	r.push(Event{TS: ts, Kind: EvCmdDequeue, TID: TAgent, A: id, B: int64(depth)})
}

// CmdCompleted records a command's done flag being set. flow links the
// completion to the message flow the command issued (0 when the command
// did not post a flow-stamped op); serviceNs is the dequeue→complete
// offload service time, observed into the service histogram.
func (r *Recorder) CmdCompleted(ts int64, id int64, flow int64, serviceNs int64) {
	if r.Enabled() {
		r.cmdCompleted(ts, id, flow, serviceNs)
	}
}

//go:noinline
func (r *Recorder) cmdCompleted(ts int64, id int64, flow int64, serviceNs int64) {
	r.M.CmdDone++
	r.M.ServiceH.Observe(serviceNs)
	r.push(Event{TS: ts, Kind: EvCmdComplete, TID: TAgent, A: id, Flow: flow})
}

// DutyIssueBatch charges ns of offload-thread time to issuing one drain
// batch of cmds commands (batch-aware duty accounting: the mean batch size
// is BatchedCmds/DrainBatches).
func (r *Recorder) DutyIssueBatch(ns int64, cmds int) {
	if !r.Enabled() {
		return
	}
	r.M.IssueNs += ns
	r.M.DrainBatches++
	r.M.BatchedCmds += int64(cmds)
}

// DutyProgress charges ns of offload-thread time to Testany progress.
func (r *Recorder) DutyProgress(ns int64) {
	if !r.Enabled() {
		return
	}
	r.M.ProgressNs += ns
	r.M.TestanyPolls++
}

// DutyIdle charges ns of offload-thread time to idling.
func (r *Recorder) DutyIdle(ns int64) {
	if !r.Enabled() {
		return
	}
	r.M.IdleNs += ns
}

// Issued records an Isend/Irecv entering the protocol engine. kind must be
// one of EvIssueEager, EvIssueRdv, EvIssueRecv; flow is the message's
// causal flow id (sends; 0 for receives, which inherit the sender's flow
// at landing).
func (r *Recorder) Issued(ts int64, tid uint8, kind Kind, bytes, peer int, flow int64) {
	if !r.Enabled() {
		return
	}
	r.M.IssuesByTID[tid]++
	if flow != 0 {
		r.M.FlowsSent++
	}
	r.push(Event{TS: ts, Kind: kind, TID: tid, A: int64(bytes), B: int64(peer), Flow: flow})
}

// Progressed counts one progress-engine invocation by thread class.
func (r *Recorder) Progressed(tid uint8) {
	if !r.Enabled() {
		return
	}
	r.M.ProgressByTID[tid]++
}

// CtsAnswered records a CTS sent in answer to a rendezvous RTS.
func (r *Recorder) CtsAnswered(ts int64, tid uint8, bytes, peer int, flow int64) {
	if !r.Enabled() {
		return
	}
	r.push(Event{TS: ts, Kind: EvCTS, TID: tid, A: int64(bytes), B: int64(peer), Flow: flow})
}

// RdvDone records rendezvous data landing (FIN: the transfer finished).
// The sender's NIC records it in TNIC context; the receiver's software
// notice (any other tid) is the flow's terminal event and counts a landed
// flow.
func (r *Recorder) RdvDone(ts int64, tid uint8, bytes, peer int, flow int64) {
	if !r.Enabled() {
		return
	}
	if tid != TNIC && flow != 0 {
		r.M.FlowsLanded++
	}
	r.push(Event{TS: ts, Kind: EvRdvFin, TID: tid, A: int64(bytes), B: int64(peer), Flow: flow})
}

// Delivered records a flow-stamped packet reaching this rank's NIC
// (delivery callback context); transitNs is the wire transit time since
// the packet was sent, observed into the network-transit histogram.
func (r *Recorder) Delivered(ts int64, bytes, src int, flow int64, transitNs int64) {
	if r.Enabled() {
		r.delivered(ts, bytes, src, flow, transitNs)
	}
}

//go:noinline
func (r *Recorder) delivered(ts int64, bytes, src int, flow int64, transitNs int64) {
	r.M.TransitH.Observe(transitNs)
	r.push(Event{TS: ts, Kind: EvDeliver, TID: TNIC, A: int64(bytes), B: int64(src), Flow: flow})
}

// EagerLanded records an eager payload being copied into its matching
// receive — the terminal event of an eager flow.
func (r *Recorder) EagerLanded(ts int64, tid uint8, bytes, src int, flow int64) {
	if !r.Enabled() {
		return
	}
	if flow != 0 {
		r.M.FlowsLanded++
	}
	r.push(Event{TS: ts, Kind: EvEagerLand, TID: tid, A: int64(bytes), B: int64(src), Flow: flow})
}

// RdvStarted records the sender processing a CTS (the RDMA transfer
// starts); rttNs is the rendezvous-handshake round trip since the RTS was
// posted, observed into the handshake-RTT histogram.
func (r *Recorder) RdvStarted(ts int64, tid uint8, bytes, peer int, flow int64, rttNs int64) {
	if r.Enabled() {
		r.rdvStarted(ts, tid, bytes, peer, flow, rttNs)
	}
}

//go:noinline
func (r *Recorder) rdvStarted(ts int64, tid uint8, bytes, peer int, flow int64, rttNs int64) {
	r.M.RdvRttH.Observe(rttNs)
	r.push(Event{TS: ts, Kind: EvRdvStart, TID: tid, A: int64(bytes), B: int64(peer), Flow: flow})
}

// WatchdogTripped records the watchdog failing a request (timer context).
func (r *Recorder) WatchdogTripped(ts int64, peer int) {
	if !r.Enabled() {
		return
	}
	r.M.WatchdogTrips++
	r.push(Event{TS: ts, Kind: EvWatchdog, TID: TNIC, A: int64(peer)})
}

// Converted records a blocking call converted to nonblocking + done-flag
// wait (the offload path's §3.3 conversion).
func (r *Recorder) Converted(ts int64, tid uint8) {
	if !r.Enabled() {
		return
	}
	r.M.Conversions++
	r.push(Event{TS: ts, Kind: EvConvert, TID: tid})
}
