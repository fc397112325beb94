package main

// The BENCH_*.json sweeps and the checks around them, and the chaos
// sweep. Each document sweep builds its report (package bench owns the
// types, validators and metric flattening), prints its tables and hands
// the report to ctx.writeDoc, which validates before anything reaches
// disk. The sweep axes are fixed so every generation of a document is
// comparable; only -quick shortens them. The chaos sweep writes no
// document: it runs in virtual time, so its printed table is checked
// byte for byte against results.txt.

import (
	"fmt"

	"mpioffload/bench"
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
		d, err := bench.LoadDoc(k.File)
		if err == nil {
			err = d.Validate()
		}
		if err != nil {
			return fmt.Errorf("invalid %s: %w", k.File, err)
		}
		fmt.Fprintf(c.w, "%s: valid %s document\n", k.File, d.Tag())
	}
	return nil
}

// chaosFaultAt is the chaos sweep's crash instant, ns.
const chaosFaultAt = 150_000

// chaosRanks is the chaos sweep's job size, and chaosPlans its fault
// plans: the grid is every plan crossed with every approach. The wire is
// reliable, so the one plan is the crash of the last rank.
const chaosRanks = 8

var chaosPlans = []string{"crash"}

// chaosWatchdog is the sweep's per-request deadline, ns: -watchdog-us, or
// 600 µs.
func chaosWatchdog(c *ctx) float64 {
	if c.watchdogUs > 0 {
		return c.watchdogUs * 1000
	}
	return 600_000
}

// chaosCells runs every (plan, approach) cell of the chaos sweep on the
// flat fabric, one rank per node.
func chaosCells(c *ctx) []bench.ChaosCellResult {
	var cells []bench.ChaosCellResult
	for _, plan := range chaosPlans {
		for _, a := range c.apps(sim.Baseline, sim.Offload) {
			p := c.prof("endeavor")
			p.RanksPerNode = 1
			cfg := c.cfg(a, p)
			cfg.Watchdog = chaosWatchdog(c)
			cells = append(cells, bench.ChaosCell(cfg, chaosRanks, bench.ChaosSpec{Plan: plan, FaultAt: chaosFaultAt}))
		}
	}
	return cells
}

// chaosSweep is the fault-tolerance sweep: a rank crash crossed with the
// Baseline and Offload approaches. Every cell detects the crash, shrinks
// and runs a large allreduce over the survivors, and records invariant
// violations instead of asserting, so a sweep always completes; the sweep
// then prints each violation and fails if there was any. What the cells
// must show beyond that (detection, recovery) is asserted by
// TestChaosSweepHoldsItsClaims.
func chaosSweep(c *ctx) error {
	cells := chaosCells(c)
	t := bench.NewTable(
		fmt.Sprintf("Chaos sweep (%d ranks, %s; watchdog %s)", chaosRanks, c.prof("endeavor").Name, bench.Us(chaosWatchdog(c))),
		"plan", "approach", "detect µs", "recover µs", "recovery path µs", "violations")
	for _, cell := range cells {
		t.Add(cell.Plan, cell.Approach,
			bench.Us(cell.DetectNs), bench.Us(cell.RecoverNs),
			bench.Us(float64(cell.RecoveryPathNs)),
			len(cell.Violations))
	}
	c.emit(t)
	violations := 0
	for _, cell := range cells {
		for _, v := range cell.Violations {
			fmt.Fprintf(c.w, "VIOLATION %s/%s: %s\n", cell.Plan, cell.Approach, v)
			violations++
		}
	}
	if violations > 0 {
		return fmt.Errorf("chaos sweep: %d invariant violations", violations)
	}
	return nil
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
