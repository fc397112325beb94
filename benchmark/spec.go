package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricSpec names one metric. Better is "lower" or "higher". Bound is the
// share of the parent commit's median by which an end-to-end metric may
// worsen before a change is rejected; layer metrics carry no bound. Source
// says how the number is taken ("driver", "count", "traced", "derived" or
// "timed"), Moves which end-to-end metric on which workload it should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Source string
	Moves  string
}

// runSeconds is the length of one run's measuring phase. The driver makes
// 4 + 22 × len(workloads) runs inside 3420 s, so with six workloads a run
// has about 24 s for build check, measuring and verification together.
const runSeconds = 18

// defaultSeed is the seed testdata/golden.json was recorded at.
const defaultSeed = 1

// endToEnd lists what a user of the system sees. Every run prints every one
// of them, so each is defined on every workload, and a metric has one bound
// for all workloads, so the noisiest workload sets it: on this shared
// two-core host ten runs of one workload have spread up to 17 % in wall_s
// (README.md, "Why these metrics" and "Spread").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "timed",
		Moves: "construction cost on every workload; sim_dslash_halo most (a third of a second per repetition)"},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "timed",
		Moves: "host seconds for one repetition's fixed work"},
	{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Source: "timed",
		Moves: "verified messages (simulated or real) per host second"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Source: "count",
		Moves: "VmHWM of the one process that ran the workload"},
}

// perLayer lists the single-layer metrics of the traced pass. A metric that
// does not apply to a workload (a vclock driver on an rt workload) reads 0
// there.
var perLayer = []metricSpec{
	// internal/vclock
	{Name: "vclock.events", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on sim_*; sim_dslash_halo most (idle-agent PollGap events)"},
	{Name: "vclock.events_per_msg", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on sim_dslash_halo"},
	{Name: "vclock.events_per_host_s", Unit: "1/s", Better: "higher", Source: "count", Moves: "wall_s, msgs_per_s on sim_*"},
	{Name: "vclock.after_ns_per_event", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on sim_fft_a2a (heap only)"},
	{Name: "vclock.after_allocs_per_event", Unit: "count", Better: "lower", Source: "driver", Moves: "wall_s, peak_rss_mb on sim_fft_a2a"},
	{Name: "vclock.sleep_ns_per_event", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on sim_dslash_halo (heap plus task switch)"},
	{Name: "vclock.sleep_allocs_per_event", Unit: "count", Better: "lower", Source: "driver", Moves: "wall_s on sim_dslash_halo"},
	{Name: "vclock.signal_ns_per_handoff", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on sim_dslash_halo"},
	// internal/fabric
	{Name: "fabric.msgs", Unit: "count", Better: "lower", Source: "count", Moves: "must repeat exactly; the numerator of msgs_per_s on sim_*"},
	{Name: "fabric.bytes", Unit: "count", Better: "lower", Source: "count", Moves: "must repeat exactly"},
	{Name: "fabric.send_ns_per_msg", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on sim_fft_a2a"},
	{Name: "fabric.send_allocs_per_msg", Unit: "count", Better: "lower", Source: "driver", Moves: "wall_s on sim_fft_a2a"},
	// internal/proto
	{Name: "proto.eager_sends", Unit: "count", Better: "lower", Source: "count", Moves: "op mix of the budget"},
	{Name: "proto.rdv_sends", Unit: "count", Better: "lower", Source: "count", Moves: "op mix of the budget"},
	{Name: "proto.progress_calls", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on sim_*"},
	{Name: "proto.unexpected_hits", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on sim_fft_a2a (matching)"},
	{Name: "proto.eager_ns_per_msg", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on sim_fft_a2a"},
	{Name: "proto.eager_allocs_per_msg", Unit: "count", Better: "lower", Source: "driver", Moves: "wall_s on sim_fft_a2a"},
	// internal/core
	{Name: "core.submitted", Unit: "count", Better: "lower", Source: "count", Moves: "op mix of the budget"},
	{Name: "core.mean_batch", Unit: "count", Better: "higher", Source: "traced", Moves: "vclock.events on sim_*"},
	{Name: "core.testany_polls", Unit: "count", Better: "lower", Source: "traced", Moves: "vclock.events, wall_s on sim_dslash_halo"},
	{Name: "core.polls_per_completion", Unit: "count", Better: "lower", Source: "traced", Moves: "vclock.events on sim_dslash_halo; little on sim_fft_a2a"},
	{Name: "core.cmdq_hwm", Unit: "count", Better: "lower", Source: "count", Moves: "peak_rss_mb on sim_*"},
	{Name: "core.reqpool_hwm", Unit: "count", Better: "lower", Source: "count", Moves: "peak_rss_mb on sim_*"},
	{Name: "core.idle_share_virtual", Unit: "share", Better: "lower", Source: "traced", Moves: "vclock.events on sim_dslash_halo (idle-agent parking)"},
	{Name: "core.submit_ns_per_cmd", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on sim_dslash_halo"},
	// sim (whole simulator)
	{Name: "sim.virtual_ns_baseline", Unit: "ns", Better: "lower", Source: "count", Moves: "must never move: the correctness anchor"},
	{Name: "sim.virtual_ns_offload", Unit: "ns", Better: "lower", Source: "count", Moves: "must never move: the correctness anchor"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s, peak_rss_mb on sim_*"},
	{Name: "sim.alloc_bytes_per_msg", Unit: "B", Better: "lower", Source: "count", Moves: "peak_rss_mb on sim_*"},
	{Name: "sim.unattributed_share", Unit: "share", Better: "lower", Source: "derived", Moves: "the part of wall_s no driver explains"},
	// internal/queue, internal/reqpool
	{Name: "queue.sharded_ns_per_op", Unit: "ns", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_loopback; ≈0 on rt_pingpong_unix_*"},
	{Name: "queue.sharded_allocs_per_op", Unit: "count", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_loopback"},
	{Name: "queue.mpmc_ns_per_op", Unit: "ns", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_loopback (inbox)"},
	{Name: "reqpool.get_put_ns", Unit: "ns", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_loopback"},
	// internal/transport
	{Name: "transport.encode_ns_64b", Unit: "ns", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_unix; wall_s on rt_pingpong_unix_8b"},
	{Name: "transport.encode_ns_64k", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on rt_pingpong_unix_64k (staging copy)"},
	{Name: "transport.decode_ns_64b", Unit: "ns", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "transport.decode_ns_64k", Unit: "ns", Better: "lower", Source: "driver", Moves: "wall_s on rt_pingpong_unix_64k (fresh Data slice)"},
	{Name: "transport.decode_allocs_per_frame", Unit: "count", Better: "lower", Source: "driver", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "transport.unix_raw_oneway_us", Unit: "us", Better: "lower", Source: "driver", Moves: "wall_s on rt_pingpong_unix_* at the workload's size"},
	{Name: "transport.send_call_ns_p50", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_unix; nothing on rt_flood_loopback"},
	{Name: "transport.send_call_ns_p99", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "transport.send_busy_share", Unit: "share", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_unix (send coalescing)"},
	{Name: "transport.frames_per_msg", Unit: "count", Better: "lower", Source: "count", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "transport.wire_bytes_per_msg", Unit: "B", Better: "lower", Source: "count", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "transport.send_errs", Unit: "count", Better: "lower", Source: "count", Moves: "must stay 0"},
	// rt
	{Name: "rt.oneway_p50_us", Unit: "us", Better: "lower", Source: "timed", Moves: "wall_s on rt_pingpong_unix_*"},
	{Name: "rt.oneway_p99_us", Unit: "us", Better: "lower", Source: "timed", Moves: "wall_s on rt_pingpong_unix_* (doneBell/napFallback tail)"},
	{Name: "rt.engine_oneway_us", Unit: "us", Better: "lower", Source: "derived", Moves: "wall_s on rt_pingpong_unix_*: rt.oneway_p50_us − transport.unix_raw_oneway_us"},
	{Name: "rt.post_ns_p50", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_loopback"},
	{Name: "rt.post_ns_p99", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_loopback"},
	{Name: "rt.wait_us_p50", Unit: "us", Better: "lower", Source: "traced", Moves: "wall_s on rt_pingpong_unix_*"},
	{Name: "rt.queue_wait_ns_p50", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_loopback"},
	{Name: "rt.queue_wait_ns_p99", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_loopback"},
	{Name: "rt.service_ns_p50", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "rt.service_ns_p99", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_unix"},
	{Name: "rt.deliver_upcall_ns_p50", Unit: "ns", Better: "lower", Source: "traced", Moves: "msgs_per_s on rt_flood_*"},
	{Name: "rt.progress_rounds_per_msg", Unit: "count", Better: "lower", Source: "count", Moves: "wall_s on rt_pingpong_unix_*"},
	{Name: "rt.direct_msgs_per_s", Unit: "1/s", Better: "higher", Source: "timed", Moves: "nothing; the Direct-mode reference on rt_flood_*"},
	{Name: "rt.offload_over_direct", Unit: "ratio", Better: "higher", Source: "derived", Moves: "msgs_per_s on rt_flood_* over rt.direct_msgs_per_s"},
	{Name: "rt.allocs_per_msg", Unit: "count", Better: "lower", Source: "count", Moves: "msgs_per_s on rt_flood_loopback; peak_rss_mb on rt_*"},
	{Name: "rt.alloc_bytes_per_msg", Unit: "B", Better: "lower", Source: "count", Moves: "peak_rss_mb on rt_*; wall_s on rt_pingpong_unix_64k"},
	{Name: "rt.unattributed_share", Unit: "share", Better: "lower", Source: "derived", Moves: "the part of wall_s per message no driver explains"},
	// the instrument itself
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Source: "derived", Moves: "(traced wall_s − untraced) / untraced"},
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	Name string
	Why  string
	run  func(cfg runConfig, name string) (*result, error)
}

var workloads = []workloadSpec{
	{Name: "sim_fft_a2a",
		run: func(c runConfig, n string) (*result, error) { return simWorkload(c, n, fftShape(c.tiny)) },
		Why: "message-heavy simulation: vclock heap, fabric and proto matching do most of the work, the agent is rarely idle"},
	{Name: "sim_dslash_halo",
		run: func(c runConfig, n string) (*result, error) { return simWorkload(c, n, dslashShape(c.tiny)) },
		Why: "event-heavy simulation: few messages, many task switches and idle-agent PollGap events, large set-up and RSS"},
	{Name: "rt_flood_loopback",
		run: func(c runConfig, n string) (*result, error) { return runFlood(c, n, false) },
		Why: "64 B flood in process: queue, reqpool, agent drain and matching do all the work, transport almost none"},
	{Name: "rt_flood_unix",
		run: func(c runConfig, n string) (*result, error) { return runFlood(c, n, true) },
		Why: "the same flood over Unix sockets: frame encode, one write(2) per frame and the reader do most of the work"},
	{Name: "rt_pingpong_unix_8b",
		run: func(c runConfig, n string) (*result, error) { return runPingPong(c, n, 8) },
		Why: "closed-loop 8 B ping-pong over Unix sockets: nothing to batch, wake-up path and per-message syscalls set it"},
	{Name: "rt_pingpong_unix_64k",
		run: func(c runConfig, n string) (*result, error) { return runPingPong(c, n, 64<<10) },
		Why: "closed-loop 64 KiB ping-pong over Unix sockets: the three payload copies set it, batching must not move it"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest renders the spec as BENCHMARK.json, so that file is generated
// from (and tested against) the one table above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// describe prints every metric by name with unit, direction, bound, source
// and the end-to-end metric it should move, as the README's table.
func describe(w io.Writer) {
	fmt.Fprintln(w, "| metric | unit | better | bound | source | moves |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	row := func(m metricSpec, bound string) {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s |\n",
			m.Name, m.Unit, m.Better, bound, m.Source, strings.ReplaceAll(m.Moves, "|", "/"))
	}
	for _, m := range endToEnd {
		row(m, fmt.Sprintf("%.0f %%", 100*m.Bound))
	}
	for _, m := range perLayer {
		row(m, "—")
	}
}
