package main

// The experiment table and the paper's figures and tables (Fig 2 – Fig 14).
// The document sweeps and the gates check at the end of the table live in
// docs.go. Iteration counts are the ones results.txt was recorded with:
// c.n(full, quick).

import (
	"fmt"
	"strconv"

	"mpioffload/apps/cnn"
	"mpioffload/apps/fft"
	"mpioffload/apps/qcd"
	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/sim"
)

// experiment is one row of the table: the -exp name, the step heading it
// carries in results.txt, and the code.
type experiment struct {
	name    string
	heading string
	run     func(c *ctx) error
}

// experiments is every experiment, in the order -exp=all runs them.
var experiments = []experiment{
	{"fig2", "Fig 2 (p2p overlap)", fig2},
	{"fig3a", "Fig 3a (collective overlap, 8 B)", fig3(8)},
	{"fig3b", "Fig 3b (collective overlap, 16 KB)", fig3(16384)},
	{"fig4", "Fig 4 (Isend post time)", fig4},
	{"fig5a", "Fig 5a (collective post, 8 B)", fig5(8)},
	{"fig5b", "Fig 5b (collective post, 8 KB)", fig5(8192)},
	{"fig6", "Fig 6 (multithreaded latency)", fig6},
	{"fig7a", "Fig 7a (OSU latency, Xeon)", osuLatency("endeavor")},
	{"fig7b", "Fig 7b (OSU bandwidth, Xeon)", osuBandwidth("endeavor")},
	{"fig8a", "Fig 8a (OSU latency, Phi)", osuLatency("phi")},
	{"fig8b", "Fig 8b (OSU bandwidth, Phi)", osuBandwidth("phi")},
	{"table1", "Table 1 (QCD Dslash split)", table1},
	{"fig9a", "Fig 9a (Dslash scaling, Endeavor)", fig9("endeavor", []int{8, 16, 32, 64, 128, 256},
		sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload)},
	{"fig9b", "Fig 9b (Dslash scaling, Edison)", fig9("edison", []int{16, 32, 64, 128, 256},
		sim.Baseline, sim.Iprobe, sim.CommSelf, sim.CoreSpec, sim.Offload)},
	{"fig10", "Fig 10 (Dslash split fractions)", fig10},
	{"fig11", "Fig 11 (QCD solver)", fig11},
	{"fig12", "Fig 12 (thread groups)", fig12},
	{"table2", "Table 2 (FFT split, Phi)", table2},
	{"fig13a", "Fig 13a (FFT weak scaling, Xeon)", fig13("endeavor", 1<<29, 4, []int{2, 4, 8, 16, 32, 64, 128, 256},
		sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload)},
	// No comm-self on the Phi: MPI_THREAD_MULTIPLE is unsupported there.
	{"fig13b", "Fig 13b (FFT weak scaling, Phi)", fig13("phi", 1<<25, 8, []int{1, 2, 4, 8, 16, 32, 64},
		sim.Baseline, sim.Iprobe, sim.Offload)},
	{"fig14", "Fig 14 (CNN training)", fig14},
	{"mtscale", "Enqueue scaling (BENCH_mtscale.json)", mtscale},
	{"gates", "Committed gates (every BENCH_*.json through its validator)", gates},
	{"chaos", "Chaos sweep", chaosSweep},
	{"net", "Real-wire sweep (BENCH_net.json)", netSweep},
}

func lookup(name string) *experiment {
	for i := range experiments {
		if experiments[i].name == name {
			return &experiments[i]
		}
	}
	return nil
}

func names(apps []sim.Approach) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.String()
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// approachTable builds the commonest table shape: one row per label, one
// column per approach, cell(i, r) rendering approach i's value for row r.
func approachTable(title, first string, apps []sim.Approach, labels []string, cell func(i, r int) string) *bench.Table {
	t := bench.NewTable(title, append([]string{first}, names(apps)...)...)
	for r, label := range labels {
		row := []any{label}
		for i := range apps {
			row = append(row, cell(i, r))
		}
		t.Add(row...)
	}
	return t
}

// labels renders a sweep axis as row labels.
func labels(axis []int, render func(int) string) []string {
	out := make([]string, len(axis))
	for i, x := range axis {
		out[i] = render(x)
	}
	return out
}

func sizeLabels(sizes []int) []string { return labels(sizes, bench.SizeLabel) }
func nodeLabels(nodes []int) []string { return labels(nodes, strconv.Itoa) }

// microbench is the shape of the §4 microbenchmark figures: run one sweep
// per approach (column-major: the whole sweep for the first approach, then
// the next) on `profile` and print one row per sweep point, one column per
// approach. title gets the platform name appended.
func microbench[R any](c *ctx, profile, title, first string, labels []string,
	sweep func(cfg sim.Config) []R, cell func(R) string) {
	apps := c.apps(sim.Baseline, sim.CommSelf, sim.Offload)
	cols := make([][]R, len(apps))
	for i, a := range apps {
		cols[i] = sweep(c.cfg(a, c.prof(profile)))
	}
	c.emit(approachTable(title+", "+c.prof(profile).Name, first, apps, labels,
		func(i, r int) string { return cell(cols[i][r]) }))
}

// collRanks is the rank count of the collective figures (Fig 3, Fig 5).
const collRanks = 16

// ---- microbenchmarks (paper §4) ----

func fig2(c *ctx) error {
	apps, iters := c.apps(sim.Baseline, sim.CommSelf, sim.Offload), c.n(6, 6)
	cols := make([][]bench.OverlapResult, len(apps))
	for i, a := range apps {
		cols[i] = bench.OverlapP2P(c.cfg(a, c.prof("endeavor")), bench.DefaultSizes, iters)
	}
	t := bench.NewTable(fmt.Sprintf("Fig 2: p2p compute-communication overlap (%% of comm time), %s", c.prof("endeavor").Name),
		append([]string{"size", "metric"}, names(apps)...)...)
	for r, sz := range bench.DefaultSizes {
		label := bench.SizeLabel(sz)
		rows := [3][]any{{label, "post%"}, {label, "overlap%"}, {label, "wait%"}}
		for i := range apps {
			o := cols[i][r]
			for m, v := range [3]float64{o.PostPct, o.OverlapPct, o.WaitPct} {
				rows[m] = append(rows[m], f1(v))
			}
		}
		for _, row := range rows {
			t.Add(row...)
		}
	}
	c.emit(t)
	return nil
}

func fig3(size int) func(*ctx) error {
	return func(c *ctx) error {
		iters := c.n(5, 5)
		microbench(c, "endeavor", fmt.Sprintf("Fig 3: collective overlap %% at %d B on %d ranks", size, collRanks),
			"collective", bench.CollKinds,
			func(cfg sim.Config) []bench.CollOverlapResult {
				return bench.OverlapColl(cfg, collRanks, bench.CollKinds, size, iters)
			},
			func(r bench.CollOverlapResult) string { return f1(r.OverlapPct) })
		return nil
	}
}

func fig4(c *ctx) error {
	iters := c.n(20, 20)
	microbench(c, "endeavor", "Fig 4: MPI_Isend post time (µs)", "size", sizeLabels(bench.DefaultSizes),
		func(cfg sim.Config) []bench.PostTimeResult {
			return bench.IsendPostTime(cfg, bench.DefaultSizes, iters)
		},
		func(r bench.PostTimeResult) string { return bench.Us(r.PostNs) })
	return nil
}

func fig5(size int) func(*ctx) error {
	return func(c *ctx) error {
		iters := c.n(10, 10)
		microbench(c, "endeavor", fmt.Sprintf("Fig 5: nonblocking collective call time (µs), %d B on %d ranks", size, collRanks),
			"collective", bench.CollKinds,
			func(cfg sim.Config) []bench.CollPostResult {
				return bench.CollPostTime(cfg, collRanks, bench.CollKinds, size, iters)
			},
			func(r bench.CollPostResult) string { return bench.Us(r.PostNs) })
		return nil
	}
}

func fig6(c *ctx) error {
	sizes := []int{8, 64, 512, 4 << 10, 32 << 10}
	iters := c.n(15, 15)
	for _, threads := range []int{2, 4, 8} {
		microbench(c, "endeavor", fmt.Sprintf("Fig 6: OSU multithreaded latency (µs), %d thread pairs", threads),
			"size", sizeLabels(sizes),
			func(cfg sim.Config) []bench.LatencyResult {
				return bench.OSUMultithreadedLatency(cfg, threads, sizes, iters)
			},
			func(r bench.LatencyResult) string { return bench.Us(r.LatencyNs) })
	}
	return nil
}

func osuLatency(profile string) func(*ctx) error {
	return func(c *ctx) error {
		iters := c.n(30, 30)
		microbench(c, profile, "Fig 7a/8a: OSU one-way latency (µs)", "size", sizeLabels(bench.DefaultSizes),
			func(cfg sim.Config) []bench.LatencyResult { return bench.OSULatency(cfg, bench.DefaultSizes, iters) },
			func(r bench.LatencyResult) string { return bench.Us(r.LatencyNs) })
		return nil
	}
}

func osuBandwidth(profile string) func(*ctx) error {
	return func(c *ctx) error {
		microbench(c, profile, "Fig 7b/8b: OSU bandwidth (GB/s)", "size", sizeLabels(bench.DefaultSizes),
			func(cfg sim.Config) []bench.BandwidthResult {
				return bench.OSUBandwidth(cfg, bench.DefaultSizes, 64, 4)
			},
			func(r bench.BandwidthResult) string { return f2(r.GBps) })
		return nil
	}
}

// ---- applications (paper §5) ----

var (
	smallLattice = [qcd.Nd]int{32, 32, 32, 256}
	largeLattice = [qcd.Nd]int{48, 48, 48, 512}
)

// rank0 runs an application model on nodes × RanksPerNode ranks and
// returns rank 0's result.
func rank0[R any](c *ctx, a sim.Approach, p *model.Profile, nodes int, level sim.ThreadLevel, program func(env *sim.Env) R) R {
	var out R
	cfg := c.cfg(a, p)
	cfg.Ranks = nodes * p.RanksPerNode
	cfg.ThreadLevel = level
	bench.Run(cfg, func(env *sim.Env) {
		if r := program(env); env.Rank() == 0 {
			out = r
		}
	})
	return out
}

func dslash(c *ctx, p *model.Profile, a sim.Approach, nodes int, L [qcd.Nd]int, iters int) qcd.TimeSplit {
	return rank0(c, a, p, nodes, sim.Funneled, func(env *sim.Env) qcd.TimeSplit {
		return qcd.RunDslash(env, L, 1, iters)
	})
}

// splitTable is the shape Tables 1 and 2 share: rank 0's per-iteration
// time split under baseline and offload, and what offloading changed.
// (fft.Split has qcd.TimeSplit's fields, so Table 2 converts.)
func splitTable(c *ctx, title string, unit func(ns float64) string, nodeCounts []int, split func(a sim.Approach, nodes int) qcd.TimeSplit) {
	t := bench.NewTable(title,
		"nodes",
		"base.internal", "base.post", "base.wait", "base.misc", "base.total",
		"off.internal", "off.post", "off.wait", "off.misc", "off.total",
		"compute.slowdown%", "post.reduction%", "wait.reduction%")
	for _, nodes := range nodeCounts {
		b, o := split(sim.Baseline, nodes), split(sim.Offload, nodes)
		t.Add(nodes,
			unit(b.Internal), unit(b.Post), unit(b.Wait), unit(b.Misc), unit(b.Total),
			unit(o.Internal), unit(o.Post), unit(o.Wait), unit(o.Misc), unit(o.Total),
			f1(100*(o.Internal/b.Internal-1)), f1(100*(1-o.Post/b.Post)), f1(100*(1-o.Wait/b.Wait)))
	}
	c.emit(t)
}

func table1(c *ctx) error {
	iters := c.n(3, 2)
	splitTable(c, "Table 1: QCD Dslash time split per iteration, 32³×256, Endeavor (µs)", bench.Us,
		[]int{8, 16, 32, 64, 128, 256},
		func(a sim.Approach, nodes int) qcd.TimeSplit {
			return dslash(c, c.prof("endeavor"), a, nodes, smallLattice, iters)
		})
	return nil
}

func fig9(profile string, nodeCounts []int, defaults ...sim.Approach) func(*ctx) error {
	return func(c *ctx) error {
		apps, iters := c.apps(defaults...), c.n(3, 2)
		for _, L := range [][qcd.Nd]int{smallLattice, largeLattice} {
			c.emit(approachTable(
				fmt.Sprintf("Fig 9 (%s): Wilson-Dslash strong scaling, %dx%dx%dx%d lattice (TFLOP/s)",
					c.prof(profile).Name, L[0], L[1], L[2], L[3]),
				"nodes", apps, nodeLabels(nodeCounts),
				func(i, r int) string {
					ts := dslash(c, c.prof(profile), apps[i], nodeCounts[r], L, iters)
					return f2(qcd.Tflops(L, ts.Total))
				}))
		}
		return nil
	}
}

func fig10(c *ctx) error {
	iters := c.n(3, 2)
	for _, p := range c.profs("endeavor", "phi") {
		t := bench.NewTable(
			fmt.Sprintf("Fig 10: Wilson-Dslash timing split (%% of total), 32³×256, %s", p.Name),
			"nodes", "approach", "compute%", "wait%", "misc%")
		for _, nodes := range []int{16, 64, 256} {
			for _, a := range c.apps(sim.Baseline, sim.Offload) {
				ts := dslash(c, p, a, nodes, smallLattice, iters)
				t.Add(nodes, a.String(),
					f1(100*(ts.Internal+ts.Post)/ts.Total), f1(100*ts.Wait/ts.Total), f1(100*ts.Misc/ts.Total))
			}
		}
		c.emit(t)
	}
	return nil
}

func fig11(c *ctx) error {
	apps, iters := c.apps(sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload), c.n(3, 2)
	nodeCounts := []int{8, 16, 32, 64, 128, 256}
	c.emit(approachTable("Fig 11: QCD solver (CG) performance, 32³×256, Endeavor (TFLOP/s)",
		"nodes", apps, nodeLabels(nodeCounts),
		func(i, r int) string {
			per := rank0(c, apps[i], c.prof("endeavor"), nodeCounts[r], sim.Funneled, func(env *sim.Env) float64 {
				return qcd.RunSolver(env, smallLattice, 1, iters)
			})
			return f2(qcd.SolverTflops(smallLattice, per))
		}))
	return nil
}

func fig12(c *ctx) error {
	apps, iters := c.apps(sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload), c.n(3, 2)
	nodeCounts := []int{32, 64, 128}
	c.emit(approachTable("Fig 12: Dslash with thread groups + MPI_THREAD_MULTIPLE, relative to funneled (32³×256, Endeavor)",
		"nodes", apps, nodeLabels(nodeCounts),
		func(i, r int) string {
			funneled := dslash(c, c.prof("endeavor"), apps[i], nodeCounts[r], smallLattice, iters)
			groups := rank0(c, apps[i], c.prof("endeavor"), nodeCounts[r], sim.Multiple, func(env *sim.Env) float64 {
				return qcd.RunDslashThreadGroups(env, smallLattice, 4, 1, iters)
			})
			return fmt.Sprintf("%.3f", funneled.Total/groups)
		}))
	return nil
}

// pipelinedFFT runs the SOI-style pipelined 1-D FFT with perNode points on
// every node and returns rank 0's time split.
func pipelinedFFT(c *ctx, p *model.Profile, a sim.Approach, nodes, perNode, segments, iters int) fft.Split {
	return rank0(c, a, p, nodes, sim.Funneled, func(env *sim.Env) fft.Split {
		return fft.RunPipelined(env, perNode/p.RanksPerNode, segments, 1, iters)
	})
}

func table2(c *ctx) error {
	iters := c.n(2, 1)
	splitTable(c, "Table 2: FFT time split, 2^25 points/node, Xeon Phi cluster (ms)",
		func(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) },
		[]int{2, 4, 8, 16, 32},
		func(a sim.Approach, nodes int) qcd.TimeSplit {
			return qcd.TimeSplit(pipelinedFFT(c, c.prof("phi"), a, nodes, 1<<25, 8, iters))
		})
	return nil
}

func fig13(profile string, perNode, segments int, nodeCounts []int, defaults ...sim.Approach) func(*ctx) error {
	return func(c *ctx) error {
		apps, iters := c.apps(defaults...), c.n(2, 1)
		c.emit(approachTable(
			fmt.Sprintf("Fig 13 (%s): 1-D FFT weak scaling, %d points/node (GFLOP/s)", c.prof(profile).Name, perNode),
			"nodes", apps, nodeLabels(nodeCounts),
			func(i, r int) string {
				sp := pipelinedFFT(c, c.prof(profile), apps[i], nodeCounts[r], perNode, segments, iters)
				return f1(fft.Gflops(perNode*nodeCounts[r], sp.Total))
			}))
		return nil
	}
}

func fig14(c *ctx) error {
	apps, iters := c.apps(sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload), c.n(3, 2)
	net := cnn.VGGLike()
	t := bench.NewTable("Fig 14: CNN hybrid-parallel training (images/s), minibatch 256, Endeavor",
		append(append([]string{"nodes"}, names(apps)...), "offload/baseline")...)
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64} {
		row := []any{nodes}
		per := make(map[sim.Approach]float64)
		for _, a := range apps {
			per[a] = rank0(c, a, c.prof("endeavor"), nodes, sim.Funneled, func(env *sim.Env) float64 {
				return cnn.RunHybrid(env, net, 2, iters)
			})
			row = append(row, f1(cnn.ImagesPerSec(net, per[a])))
		}
		t.Add(append(row, f2(per[sim.Baseline]/per[sim.Offload]))...)
	}
	c.emit(t)
	return nil
}
