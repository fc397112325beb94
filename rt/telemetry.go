package rt

// Live telemetry for the wall-clock cluster: per-agent duty cycle and
// queue depth, per-rank operation rates, in-flight requests and watchdog
// arming, served over HTTP as Prometheus text format and expvar JSON.
//
// All samplers read counters the hot paths already maintain — scraping
// costs the scraper's goroutine a handful of atomic loads and the
// instrumented code nothing. The only instrumentation that activates with
// a registry attached is the offload loops' duty-cycle timing (two
// time.Now calls per wakeup), gated on Cluster.telemOn.

import (
	"fmt"
	"time"

	"mpioffload/internal/obs"
	"mpioffload/internal/obs/telemetry"
)

// AttachTelemetry registers the cluster's live metrics with reg and turns
// on duty-cycle timing in the offload loops. Metric names follow the
// rt_* family: rt_agent_duty{rank,agent}, rt_cmdq_depth{rank,agent},
// rt_sends_total{rank}, rt_recvs_total{rank}, rt_progress_total{rank},
// rt_polls_total{rank}, rt_polls_per_completion{rank}, rt_inflight{rank},
// rt_watchdog_armed{rank}, rt_watchdog_trips_total{rank},
// rt_posts_per_sec{rank}, rt_qwait_ns{rank}, rt_service_ns{rank}, and the
// wire's rt_net_sent_bytes_total{rank} / rt_net_recv_bytes_total{rank} /
// rt_net_sent_frames_total{rank} / rt_net_recv_frames_total{rank} /
// rt_net_send_errors_total{rank} from the rank's transport endpoint.
func (c *Cluster) AttachTelemetry(reg *telemetry.Registry) {
	c.telemStartNs.Store(time.Now().UnixNano())
	c.telemOn.Store(true)

	reg.Gauge("rt_ranks", "ranks in the cluster").Set(float64(len(c.ranks)))
	reg.Gauge("rt_agents_per_rank", "offload goroutines per rank").Set(float64(c.AgentsPerRank()))
	reg.Gauge("rt_mode", "0=direct (global lock), 1=offload").Set(float64(c.mode))

	for _, r := range c.ranks {
		r := r
		rl := fmt.Sprintf(`{rank="%d"}`, r.id)
		reg.CounterFunc("rt_sends_total"+rl, "sends posted",
			func() float64 { return float64(r.Sends.Load()) })
		reg.CounterFunc("rt_recvs_total"+rl, "receives posted",
			func() float64 { return float64(r.Recvs.Load()) })
		reg.CounterFunc("rt_progress_total"+rl, "messages drained from the inbox",
			func() float64 { return float64(r.Progress.Load()) })
		reg.CounterFunc("rt_polls_total"+rl, "engine progress polls",
			func() float64 { return float64(r.Polls.Load()) })
		reg.GaugeFunc("rt_polls_per_completion"+rl, "polls per completed operation (polling overhead)",
			func() float64 {
				done := r.Sends.Load() + r.Recvs.Load()
				if done == 0 {
					return 0
				}
				return float64(r.Polls.Load()) / float64(done)
			})
		reg.CounterFunc("rt_net_sent_bytes_total"+rl, "payload bytes handed to the wire",
			func() float64 { return float64(r.ep.Stats().BytesSent) })
		reg.CounterFunc("rt_net_recv_bytes_total"+rl, "payload bytes delivered by the wire",
			func() float64 { return float64(r.ep.Stats().BytesRecv) })
		reg.CounterFunc("rt_net_sent_frames_total"+rl, "frames handed to the wire",
			func() float64 { return float64(r.ep.Stats().FramesSent) })
		reg.CounterFunc("rt_net_recv_frames_total"+rl, "frames delivered by the wire",
			func() float64 { return float64(r.ep.Stats().FramesRecv) })
		reg.CounterFunc("rt_net_send_errors_total"+rl, "wire sends that failed or were dropped at a dark NIC",
			func() float64 { return float64(r.ep.Stats().SendErrs) })
		reg.CounterFunc("rt_watchdog_trips_total"+rl, "WaitErr deadline expirations",
			func() float64 { return float64(r.WatchdogTrips.Load()) })
		reg.GaugeFunc("rt_inflight"+rl, "request-pool slots currently allocated",
			func() float64 { return float64(r.pool.InUse()) })
		reg.GaugeFunc("rt_watchdog_armed"+rl, "waiters currently spinning under a deadline",
			func() float64 { return float64(r.wdArmed.Load()) })
		reg.GaugeFunc("rt_posts_per_sec"+rl, "operation post rate since telemetry attach",
			func() float64 {
				el := time.Now().UnixNano() - c.telemStartNs.Load()
				if el <= 0 {
					return 0
				}
				return float64(r.Sends.Load()+r.Recvs.Load()) / (float64(el) / 1e9)
			})
		reg.HistogramFunc("rt_qwait_ns"+rl, "command queue wait (needs SetStatsEnabled)",
			func() obs.Hist { return r.qwaitH.Snapshot() })
		reg.HistogramFunc("rt_service_ns"+rl, "offload service time (needs SetStatsEnabled)",
			func() obs.Hist { return r.serviceH.Snapshot() })

		for _, e := range r.engines {
			e := e
			al := fmt.Sprintf(`{rank="%d",agent="%d"}`, r.id, e.idx)
			reg.GaugeFunc("rt_agent_duty"+al, "busy fraction of the agent's wall time",
				func() float64 {
					busy, idle := e.busyNs.Load(), e.idleNs.Load()
					if busy+idle == 0 {
						return 0
					}
					return float64(busy) / float64(busy+idle)
				})
			reg.GaugeFunc("rt_cmdq_depth"+al, "commands waiting in the agent's queue",
				func() float64 { return float64(e.cq.Len()) })
		}
	}
}
