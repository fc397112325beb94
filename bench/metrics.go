package bench

import (
	"fmt"

	"mpioffload/internal/obs"
	"mpioffload/sim"
)

// The benchmarks also accumulate each run's per-layer observability
// counters, keyed by approach, so drivers can print one metrics summary
// per approach for a whole sweep (Run folds them in) and latency
// decompositions can be compared across approaches.
var (
	metByApp    map[sim.Approach]*sim.Metrics
	metAppOrder []sim.Approach
)

// ApproachMetrics is one approach's accumulated metrics.
type ApproachMetrics struct {
	Approach sim.Approach
	M        sim.Metrics
}

// TakeMetricsPerApproach returns the per-approach metrics accumulated since
// the last call, in first-run order, and resets the accumulators.
func TakeMetricsPerApproach() []ApproachMetrics {
	out := make([]ApproachMetrics, 0, len(metAppOrder))
	for _, a := range metAppOrder {
		out = append(out, ApproachMetrics{Approach: a, M: *metByApp[a]})
	}
	metByApp = nil
	metAppOrder = nil
	return out
}

// Run executes one simulation, folding its observability counters into the
// package accumulator. All benchmark entry points go through it.
func Run(cfg sim.Config, program func(env *Env)) sim.Result {
	res := sim.Run(cfg, program)
	accumulateMetrics(cfg.Approach, res.Metrics)
	return res
}

func accumulateMetrics(a sim.Approach, m sim.Metrics) {
	if metByApp == nil {
		metByApp = make(map[sim.Approach]*sim.Metrics)
	}
	acc, ok := metByApp[a]
	if !ok {
		acc = &sim.Metrics{}
		metByApp[a] = acc
		metAppOrder = append(metAppOrder, a)
	}
	acc.Add(m)
}

// histRow renders one latency histogram as a p50/p90/p99/max cell.
func histRow(h obs.Hist) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("p50=%d p90=%d p99=%d max=%d (n=%d)",
		h.P50(), h.P90(), h.P99(), h.Max, h.Count)
}

// MetricsTable renders the per-layer offload metrics under the given
// title (drivers print one per approach alongside their results).
func MetricsTable(title string, m sim.Metrics) *Table {
	t := NewTable(title, "counter", "value")
	t.Add("commands submitted", m.Submitted)
	t.Add("commands issued", m.Issued)
	t.Add("commands completed", m.Completed)
	t.Add("command-queue depth HWM", m.CmdQueueHWM)
	t.Add("request-pool occupancy HWM", m.ReqPoolHWM)
	issue, progress, idle := m.DutyCycle()
	t.Add("duty cycle issue/progress/idle",
		fmt.Sprintf("%.1f%% / %.1f%% / %.1f%%", 100*issue, 100*progress, 100*idle))
	t.Add("testany polls", m.TestanyPolls)
	t.Add("polls per completion", m.PollsPerCompletion())
	t.Add("drain batches", m.DrainBatches)
	t.Add("mean drain batch size", fmt.Sprintf("%.2f", m.MeanBatch()))
	t.Add("issues app/agent", fmt.Sprintf("%d / %d", m.IssuesApp, m.IssuesAgent))
	t.Add("progress app/agent", fmt.Sprintf("%d / %d", m.ProgressApp, m.ProgressAgent))
	t.Add("blocking conversions", m.Conversions)
	t.Add("eager sends", m.EagerSends)
	t.Add("rendezvous sends", m.RdvSends)
	t.Add("receives", m.Recvs)
	t.Add("progress calls", m.ProgressCalls)
	t.Add("unexpected-queue hits", m.UnexpectedHits)
	t.Add("posted-queue hits", m.PostedHits)
	t.Add("watchdog trips", m.WatchdogTrips)
	t.Add("crash drops", m.CrashDrops)
	t.Add("trace events", m.Events)
	t.Add("trace events dropped", m.EventsDropped)
	t.Add("flows sent/landed", fmt.Sprintf("%d / %d", m.FlowsSent, m.FlowsLanded))
	t.Add("queue-wait ns", histRow(m.QueueWaitH))
	t.Add("offload service ns", histRow(m.ServiceH))
	t.Add("network transit ns", histRow(m.TransitH))
	t.Add("rendezvous RTT ns", histRow(m.RdvRttH))
	t.Add("cmd-queue depth dist", histRow(m.CmdQDepthH))
	t.Add("req-pool occupancy dist", histRow(m.PoolOccH))
	return t
}
