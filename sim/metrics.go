package sim

import (
	"mpioffload/internal/core"
	"mpioffload/internal/obs"
	"mpioffload/internal/proto"
)

// Metrics aggregates the per-layer observability counters of one run (or,
// via Add, several). The command-path, high-water-mark and protocol counters
// are always on; the tracer-derived counters (duty cycle, thread-class
// attribution, conversions, event accounting) require Config.Trace.
type Metrics struct {
	// Offload command path (§3.1): commands submitted to the lock-free
	// queue, issued by the offload thread, and completed (done flag set).
	Submitted, Issued, Completed int64
	// CmdQueueHWM is the deepest any rank's command queue has been;
	// ReqPoolHWM the peak request-pool occupancy of any rank.
	CmdQueueHWM, ReqPoolHWM int64

	// Offload-thread duty cycle (§3.2), virtual ns summed across ranks:
	// time spent issuing commands, driving Testany-style progress, and
	// parked idle.
	IssueNs, ProgressNs, IdleNs int64
	// TestanyPolls counts offload-thread progress rounds; with Completed
	// it yields PollsPerCompletion.
	TestanyPolls int64
	// Batched draining (§3.3 under contention): DrainBatches counts
	// offload-thread wakeups that issued commands, BatchedCmds the commands
	// they drained; MeanBatch derives the mean drain batch size.
	DrainBatches, BatchedCmds int64

	// Thread-class attribution: who posts operations and who drives
	// progress. Under Offload every issue must come from the agent class;
	// under Baseline/Iprobe everything stays on application threads.
	IssuesApp, IssuesAgent     int64
	ProgressApp, ProgressAgent int64
	// Conversions counts blocking calls converted to nonblocking +
	// done-flag wait on the offload path (§3.3).
	Conversions int64

	// Protocol layer (always on, from engine stats).
	EagerSends, RdvSends, Recvs int64
	ProgressCalls               int64
	UnexpectedHits, PostedHits  int64
	WatchdogTrips               int64
	// CrashDrops counts the packets the fabric silenced because their
	// source or destination had crashed (cluster-wide: Result.Metrics only).
	CrashDrops int64

	// Tracer accounting.
	Events, EventsDropped int64

	// Causal-flow accounting: messages stamped with a flow id on issue and
	// flows observed landing (requires Config.Trace).
	FlowsSent, FlowsLanded int64

	// Per-op latency decomposition (log2-bucketed histograms, virtual ns;
	// requires Config.Trace): queue-wait (cmd enqueue→dequeue), offload
	// service (dequeue→complete), network transit (wire send→NIC delivery)
	// and rendezvous-handshake round trip (RTS post→CTS processed).
	QueueWaitH, ServiceH, TransitH, RdvRttH obs.Hist

	// Depth distributions sampled inside the lock-free structures (always
	// on): command-queue depth at each consumer drain, and request-pool
	// occupancy at each Get.
	CmdQDepthH, PoolOccH obs.Hist
}

// Add accumulates o into m (high-water marks take the max, everything else
// sums).
func (m *Metrics) Add(o Metrics) {
	m.Submitted += o.Submitted
	m.Issued += o.Issued
	m.Completed += o.Completed
	if o.CmdQueueHWM > m.CmdQueueHWM {
		m.CmdQueueHWM = o.CmdQueueHWM
	}
	if o.ReqPoolHWM > m.ReqPoolHWM {
		m.ReqPoolHWM = o.ReqPoolHWM
	}
	m.IssueNs += o.IssueNs
	m.ProgressNs += o.ProgressNs
	m.IdleNs += o.IdleNs
	m.TestanyPolls += o.TestanyPolls
	m.DrainBatches += o.DrainBatches
	m.BatchedCmds += o.BatchedCmds
	m.IssuesApp += o.IssuesApp
	m.IssuesAgent += o.IssuesAgent
	m.ProgressApp += o.ProgressApp
	m.ProgressAgent += o.ProgressAgent
	m.Conversions += o.Conversions
	m.EagerSends += o.EagerSends
	m.RdvSends += o.RdvSends
	m.Recvs += o.Recvs
	m.ProgressCalls += o.ProgressCalls
	m.UnexpectedHits += o.UnexpectedHits
	m.PostedHits += o.PostedHits
	m.WatchdogTrips += o.WatchdogTrips
	m.CrashDrops += o.CrashDrops
	m.Events += o.Events
	m.EventsDropped += o.EventsDropped
	m.FlowsSent += o.FlowsSent
	m.FlowsLanded += o.FlowsLanded
	m.QueueWaitH.Add(o.QueueWaitH)
	m.ServiceH.Add(o.ServiceH)
	m.TransitH.Add(o.TransitH)
	m.RdvRttH.Add(o.RdvRttH)
	m.CmdQDepthH.Add(o.CmdQDepthH)
	m.PoolOccH.Add(o.PoolOccH)
}

// DutyCycle splits the offload thread's time into issue/progress/idle
// shares (each 0..1; all zero when no offload thread ran or no trace was
// attached).
func (m Metrics) DutyCycle() (issue, progress, idle float64) {
	total := float64(m.IssueNs + m.ProgressNs + m.IdleNs)
	if total <= 0 {
		return 0, 0, 0
	}
	return float64(m.IssueNs) / total, float64(m.ProgressNs) / total, float64(m.IdleNs) / total
}

// MeanBatch is the mean number of commands the offload thread drained per
// issuing wakeup (0 when no trace was attached or nothing was drained).
func (m Metrics) MeanBatch() float64 {
	if m.DrainBatches == 0 {
		return 0
	}
	return float64(m.BatchedCmds) / float64(m.DrainBatches)
}

// PollsPerCompletion is the mean number of Testany progress rounds the
// offload thread took per completed command — the §3.2 polling efficiency.
func (m Metrics) PollsPerCompletion() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.TestanyPolls) / float64(m.Completed)
}

// rankMetricsOf collects one rank's counters from its engine, offloader and
// (when tracing) recorder.
func rankMetricsOf(eng *proto.Engine, off *core.Offloader) Metrics {
	s := eng.Stats()
	m := Metrics{
		EagerSends:     int64(s.EagerSends),
		RdvSends:       int64(s.RdvSends),
		Recvs:          int64(s.Recvs),
		ProgressCalls:  int64(s.ProgressCalls),
		UnexpectedHits: int64(s.UnexpectedHit),
		PostedHits:     int64(s.PostedHit),
		WatchdogTrips:  int64(s.WatchdogTrips),
	}
	if off != nil {
		m.Submitted = off.Submitted.Load()
		m.Issued = off.Issued.Load()
		m.Completed = off.Completed.Load()
		m.CmdQueueHWM = int64(off.QueueHighWater())
		m.ReqPoolHWM = int64(off.PoolHighWater())
		m.CmdQDepthH = off.QDepthH.Snapshot()
		m.PoolOccH = off.PoolOccH.Snapshot()
	}
	rm := eng.Obs.Metrics() // zero when no recorder is attached
	m.IssueNs = rm.IssueNs
	m.ProgressNs = rm.ProgressNs
	m.IdleNs = rm.IdleNs
	m.TestanyPolls = rm.TestanyPolls
	m.DrainBatches = rm.DrainBatches
	m.BatchedCmds = rm.BatchedCmds
	m.IssuesApp = rm.IssuesByTID[obs.TApp]
	m.IssuesAgent = rm.IssuesByTID[obs.TAgent]
	m.ProgressApp = rm.ProgressByTID[obs.TApp]
	m.ProgressAgent = rm.ProgressByTID[obs.TAgent]
	m.Conversions = rm.Conversions
	m.Events = rm.Events
	m.EventsDropped = rm.EventsDropped
	m.FlowsSent = rm.FlowsSent
	m.FlowsLanded = rm.FlowsLanded
	m.QueueWaitH = rm.QueueWaitH
	m.ServiceH = rm.ServiceH
	m.TransitH = rm.TransitH
	m.RdvRttH = rm.RdvRttH
	return m
}

// metricsOf aggregates the whole cluster's counters.
func metricsOf(engs []*proto.Engine, offs []*core.Offloader) Metrics {
	var m Metrics
	for r, eng := range engs {
		m.Add(rankMetricsOf(eng, offs[r]))
	}
	return m
}

// Metrics returns this rank's per-layer counters — live, at the current
// virtual time (the per-run aggregate is in Result.Metrics).
func (e *Env) Metrics() Metrics { return rankMetricsOf(e.eng, e.off) }
