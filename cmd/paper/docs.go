package main

// The BENCH_*.json sweeps and the checks around them. Each sweep builds
// its report (package bench owns the types, validators and metric
// flattening), prints its tables and hands the report to ctx.writeDoc,
// which validates before anything reaches disk. The sweep axes are fixed
// so every generation of a document is comparable; only -quick shortens
// them.

import (
	"fmt"
	"strings"

	"mpioffload/bench"
	"mpioffload/internal/fault"
	"mpioffload/internal/topo"
	"mpioffload/rt"
	"mpioffload/sim"
)

// mtscale is the enqueue-scaling sweep: the mean Isend post cost as the
// submitting thread count grows 1–16, in virtual time (simulator, offload
// approach — must stay flat at EnqueueCost) and in wall-clock (rt layer —
// private-shard submission via RegisterThread versus the shared MPMC
// overflow path). The quick sweep stops at 8 threads, keeping the 16-thread
// perf-gate rows out of statistically tiny documents.
func mtscale(c *ctx) error {
	threads := []int{1, 2, 4, 8, 16}
	rtIters := 20000
	if c.quick {
		threads, rtIters = threads[:4], 512
	}
	iters := c.n(40, 10)
	p := c.prof("endeavor")
	rep := &bench.MTScaleReport{
		Schema:  bench.MTScaleSchema,
		Profile: p.Name,
		Sim:     bench.MTPostScaling(c.cfg(sim.Offload, p), threads, iters),
		RT:      rtPostScaling(threads, rtIters),
	}
	t := bench.NewTable(
		fmt.Sprintf("Enqueue scaling, %s (sim: virtual post ns; rt: wall-clock ns/post)", p.Name),
		"threads", "sim post", "sim batch", "rt sharded", "rt shared")
	for i, s := range rep.Sim {
		t.Add(s.Threads, fmt.Sprintf("%.0f", s.PostNs), f2(s.MeanBatch),
			fmt.Sprintf("%.0f", rep.RT[i].ShardedNsPerPost), fmt.Sprintf("%.0f", rep.RT[i].SharedNsPerPost))
	}
	c.emit(t)
	return c.writeDoc("BENCH_mtscale.json", rep)
}

// gates runs every committed document through its validator: the perf and
// invariant gates of the full-size sweeps, checked without re-measuring.
func gates(c *ctx) error {
	for _, k := range bench.Docs {
		if err := validateDoc(c.w, k.File); err != nil {
			return err
		}
	}
	return nil
}

// topoSweep sweeps allreduce algorithms across network topologies: the
// flat analytic fabric, fat-trees at 1:1 and 2:1 oversubscription, and a
// dragonfly, each running the flat ring, the topology-aware hierarchical
// schedule, and Iallreduce's automatic selection over message sizes from
// 64 KiB to 4 MiB on 16 nodes × 2 ranks.
func topoSweep(c *ctx) error {
	const nodes, rpn = 16, 2
	topoAxis := []string{"flat", "fattree:arity=4,oversub=1", "fattree:arity=4,oversub=2", "dragonfly:group=4"}
	algoAxis := []string{"ring", "hier", "auto"}
	sizeAxis := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	iters := c.n(3, 2)

	rep := &bench.TopoReport{Schema: bench.TopoSchema, Profile: c.prof("endeavor").Name, Nodes: nodes, RanksPerNode: rpn}
	for _, ts := range topoAxis {
		spec, err := topo.Parse(ts)
		if err != nil {
			return fmt.Errorf("topology %q: %w", ts, err)
		}
		for _, algo := range algoAxis {
			for _, size := range sizeAxis {
				p := c.prof("endeavor")
				p.RanksPerNode = rpn
				p.Topo = spec
				row := bench.TopoAllreduce(c.cfg(sim.Baseline, p), nodes*rpn, algo, size, iters)
				row.Topo = ts
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	for _, ts := range topoAxis {
		t := bench.NewTable(
			fmt.Sprintf("Allreduce on %s (%d nodes x %d ranks, %s; mean µs/op)", ts, nodes, rpn, rep.Profile),
			"size", "ring", "hier", "auto", "max link util", "max link wait µs")
		for _, size := range sizeAxis {
			cells := make(map[string]bench.TopoCollResult)
			util, wait := 0.0, 0.0
			for _, r := range rep.Rows {
				if r.Topo == ts && r.Bytes == size {
					cells[r.Algo] = r
					util, wait = max(util, r.MaxLinkUtil), max(wait, r.MaxLinkWaitNs)
				}
			}
			t.Add(bench.SizeLabel(size),
				bench.Us(cells["ring"].MeanNs), bench.Us(cells["hier"].MeanNs), bench.Us(cells["auto"].MeanNs),
				fmt.Sprintf("%.3f", util), bench.Us(wait))
		}
		c.emit(t)
	}
	return c.writeDoc("BENCH_topo.json", rep)
}

// chaosFaultAt is the chaos sweep's fault instant, ns: mid-stream, so the
// workload straddles the detection and reroute windows.
const chaosFaultAt = 150_000

// chaosSpec builds one chaos cell's fault plan. The
// trunkdown/flap plans kill a leaf uplink trunk on the fat-tree (its twin
// survives) and one directed global link on the dragonfly (rerouting
// detours via an intermediate group); the crash plan kills the last rank.
func chaosSpec(topoSpec, plan string, seed int64, ranks int) bench.ChaosSpec {
	deadLink := "leaf0.up0"
	if strings.HasPrefix(topoSpec, "dragonfly") {
		deadLink = "grp0-grp1"
	}
	s := bench.ChaosSpec{Topo: topoSpec, Plan: plan, FaultAt: chaosFaultAt, Fault: &fault.Plan{Seed: seed}}
	switch plan {
	case "drop":
		s.Fault.DropRate, s.Fault.DupRate = 0.03, 0.01
		s.FaultAt = 0
	case "trunkdown":
		s.Fault.Links = []fault.LinkDown{{Link: deadLink, Start: chaosFaultAt}}
	case "flap":
		s.Fault.Links = []fault.LinkDown{{Link: deadLink, Start: chaosFaultAt, End: chaosFaultAt + 100_000}}
	case "crash":
		s.Fault.Crashes = []fault.Crash{{Rank: ranks - 1, At: chaosFaultAt}}
		s.Crash = true
	}
	return s
}

// chaosSweep is the self-healing-fabric sweep: seeded fault plans (packet
// loss, a permanent trunk failure, a transient link flap, a rank crash)
// crossed with multi-path topologies (a 2-trunk fat-tree and a dragonfly)
// and both the Baseline and Offload approaches. Every cell runs an
// exactly-once eager stream and a large allreduce across the fault and
// records invariant violations instead of asserting, so a sweep always
// completes; the validator then demands zero of them.
func chaosSweep(c *ctx) error {
	topoAxis := []string{"fattree:arity=4,oversub=2,trunks=2", "dragonfly:group=2"}
	const ranks = 8
	watchdog := 600_000.0
	if c.watchdogUs > 0 {
		watchdog = c.watchdogUs * 1000
	}
	rep := &bench.ChaosReport{
		Schema: bench.ChaosSchema, Profile: c.prof("endeavor").Name,
		Ranks: ranks, Seed: c.faultSeed, WatchdogNs: watchdog,
	}
	for _, ts := range topoAxis {
		spec, err := topo.Parse(ts)
		if err != nil {
			return fmt.Errorf("topology %q: %w", ts, err)
		}
		for _, plan := range []string{"drop", "trunkdown", "flap", "crash"} {
			for _, a := range c.apps(sim.Baseline, sim.Offload) {
				p := c.prof("endeavor")
				p.RanksPerNode = 1
				p.Topo = spec
				cfg := c.cfg(a, p)
				cfg.Watchdog = watchdog
				rep.Cells = append(rep.Cells, bench.ChaosCell(cfg, ranks, chaosSpec(ts, plan, c.faultSeed, ranks)))
			}
		}
	}
	t := bench.NewTable(
		fmt.Sprintf("Chaos sweep (%d ranks, %s; watchdog %s)", ranks, rep.Profile, bench.Us(watchdog)),
		"topology", "plan", "approach", "detect µs", "recover µs",
		"rerouted", "retransmits", "recovery path µs", "violations")
	for _, cell := range rep.Cells {
		t.Add(cell.Topo, cell.Plan, cell.Approach,
			bench.Us(cell.DetectNs), bench.Us(cell.RecoverNs),
			cell.Rerouted, cell.Retransmits, bench.Us(float64(cell.RecoveryPathNs)),
			len(cell.Violations))
	}
	c.emit(t)
	for _, cell := range rep.Cells {
		for _, v := range cell.Violations {
			fmt.Fprintf(c.w, "VIOLATION %s/%s/%s: %s\n", cell.Topo, cell.Plan, cell.Approach, v)
		}
	}
	return c.writeDoc("BENCH_chaos.json", rep)
}

// netSweep measures the rt offload stack over real wires: for each
// transport backend a wall-clock OSU-style ping-pong latency sweep and a
// multithreaded message-rate sweep comparing the Direct (global lock)
// baseline against the Offload path, plus (full size only) the sim-vs-real
// residuals. The quick sweep has no 16-thread gate rows.
func netSweep(c *ctx) error {
	sizes, threadCounts := []int{8, 512, 4 << 10, 64 << 10}, []int{1, 4, bench.GateThreads}
	ppIters, rateIters := c.n(600, 200), 6000
	if c.quick {
		sizes, threadCounts, rateIters = []int{8, 4 << 10}, []int{1, 2}, 500
	}
	rep := &bench.NetReport{Schema: bench.NetSchema}
	for _, name := range []string{"loopback", "unix"} {
		b, err := benchBackend(name, sizes, threadCounts, ppIters, rateIters)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.Backends = append(rep.Backends, b)
	}
	if !c.quick {
		var err error
		if rep.Residuals, err = residuals(c, rep, sizes, ppIters); err != nil {
			return err
		}
	}
	for _, b := range rep.Backends {
		t := bench.NewTable(fmt.Sprintf("Ping-pong one-way latency, %s backend", b.Backend), "size", "latency µs")
		for _, r := range b.PingPong {
			t.Add(bench.SizeLabel(r.Size), bench.Us(r.LatencyNs))
		}
		c.emit(t)
		tr := bench.NewTable(fmt.Sprintf("Message rate (64 B floods), %s backend", b.Backend),
			"threads", "direct msg/s", "offload msg/s", "speedup")
		for _, r := range b.Rate {
			tr.Add(r.Threads, fmt.Sprintf("%.0f", r.DirectMsgsSec), fmt.Sprintf("%.0f", r.OffloadMsgsSec),
				fmt.Sprintf("%.2fx", r.OffloadMsgsSec/r.DirectMsgsSec))
		}
		c.emit(tr)
	}
	if len(rep.Residuals) > 0 {
		t := bench.NewTable("Sim-vs-real residuals (sim: Endeavor model, virtual ns; real: this host)",
			"bench", "backend", "sim µs", "real µs", "real/sim")
		for _, r := range rep.Residuals {
			t.Add(r.Bench, r.Backend, bench.Us(r.SimNs), bench.Us(r.RealNs), f2(r.Ratio))
		}
		c.emit(t)
	}
	return c.writeDoc("BENCH_net.json", rep)
}

// residuals anchors the simulator against the real wire: the sim rows are
// virtual-time predictions for the paper's Endeavor fabric, the real rows
// this host's sockets — the ratio is the documented model-vs-localhost
// residual, not an error bar (different hardware on purpose).
func residuals(c *ctx, rep *bench.NetReport, sizes []int, ppIters int) ([]bench.NetResidual, error) {
	cfg := c.cfg(sim.Offload, c.prof("endeavor"))
	simPP := bench.OSULatency(cfg, sizes, 10)
	simMT := bench.OSUMultithreadedLatency(cfg, bench.GateThreads, []int{64}, 6)
	var rows []bench.NetResidual
	for _, b := range rep.Backends {
		for i, pp := range b.PingPong {
			rows = append(rows, bench.NetResidual{
				Bench:   "pingpong/" + bench.SizeLabel(pp.Size),
				Backend: b.Backend,
				SimNs:   simPP[i].LatencyNs,
				RealNs:  pp.LatencyNs,
				Ratio:   pp.LatencyNs / simPP[i].LatencyNs,
			})
		}
		// The 16-thread multithreaded ping-pong, the shape of the paper's
		// Fig 6 saturated cell.
		cl, err := newBackendCluster(b.Backend, rt.Offload, rt.Options{ShardCount: bench.GateThreads})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Backend, err)
		}
		realMT := pingPong(cl, bench.GateThreads, 64, max(ppIters/4, 50))
		cl.Close()
		rows = append(rows, bench.NetResidual{
			Bench:   fmt.Sprintf("mt_pingpong/%dt/64B", bench.GateThreads),
			Backend: b.Backend,
			SimNs:   simMT[0].LatencyNs,
			RealNs:  realMT,
			Ratio:   realMT / simMT[0].LatencyNs,
		})
	}
	return rows, nil
}
