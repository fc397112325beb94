package mpioffload_test

// One Go benchmark per table and figure of the paper's evaluation, at a
// scale that keeps `go test -bench=.` tractable; the cmd/ drivers run the
// full-size versions. Custom metrics carry the experiment's headline
// quantity (overlap %, post time, latency, speedup, ...). Simulated
// quantities are deterministic; ns/op measures only host cost.

import (
	"testing"

	"mpioffload/apps/cnn"
	"mpioffload/apps/fft"
	"mpioffload/apps/qcd"
	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/sim"
)

var benchSizes = []int{8, 4 << 10, 512 << 10}

func BenchmarkFig2_OverlapP2P(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.OverlapResult
			for i := 0; i < b.N; i++ {
				last = bench.OverlapP2P(sim.Config{Approach: a}, benchSizes, 3)
			}
			b.ReportMetric(last[0].OverlapPct, "overlap%@8B")
			b.ReportMetric(last[2].OverlapPct, "overlap%@512K")
		})
	}
}

func BenchmarkFig3_OverlapColl(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.CollOverlapResult
			for i := 0; i < b.N; i++ {
				last = bench.OverlapColl(sim.Config{Approach: a}, 8,
					[]string{"iallreduce", "ialltoall"}, 8, 3)
			}
			b.ReportMetric(last[0].OverlapPct, "iallreduce-overlap%")
			b.ReportMetric(last[1].OverlapPct, "ialltoall-overlap%")
		})
	}
}

func BenchmarkFig4_IsendPostTime(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.PostTimeResult
			for i := 0; i < b.N; i++ {
				last = bench.IsendPostTime(sim.Config{Approach: a}, benchSizes, 5)
			}
			b.ReportMetric(last[1].PostNs, "post-ns@4K")
			b.ReportMetric(last[2].PostNs, "post-ns@512K")
		})
	}
}

func BenchmarkFig5_CollPostTime(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.CollPostResult
			for i := 0; i < b.N; i++ {
				last = bench.CollPostTime(sim.Config{Approach: a}, 8,
					[]string{"iallreduce", "ialltoall"}, 8, 5)
			}
			b.ReportMetric(last[0].PostNs, "iallreduce-post-ns")
		})
	}
}

func BenchmarkFig6_MultithreadedLatency(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.LatencyResult
			for i := 0; i < b.N; i++ {
				last = bench.OSUMultithreadedLatency(sim.Config{Approach: a}, 8, []int{8}, 5)
			}
			b.ReportMetric(last[0].LatencyNs/1000, "latency-us@8thr")
		})
	}
}

func BenchmarkFig7a_OSULatency(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.LatencyResult
			for i := 0; i < b.N; i++ {
				last = bench.OSULatency(sim.Config{Approach: a}, []int{8}, 10)
			}
			b.ReportMetric(last[0].LatencyNs/1000, "latency-us@8B")
		})
	}
}

func BenchmarkFig7b_OSUBandwidth(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.BandwidthResult
			for i := 0; i < b.N; i++ {
				last = bench.OSUBandwidth(sim.Config{Approach: a}, []int{32 << 10}, 16, 2)
			}
			b.ReportMetric(last[0].GBps, "GB/s@32K")
		})
	}
}

func BenchmarkFig8_PhiLatency(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var last []bench.LatencyResult
			for i := 0; i < b.N; i++ {
				last = bench.OSULatency(sim.Config{Approach: a, Profile: model.EndeavorPhi()}, []int{8}, 10)
			}
			b.ReportMetric(last[0].LatencyNs/1000, "latency-us@8B")
		})
	}
}

var benchLattice = [qcd.Nd]int{16, 16, 16, 32}

func BenchmarkTable1_DslashSplit(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var ts qcd.TimeSplit
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 16, Approach: a}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						ts = r
					}
				})
			}
			b.ReportMetric(ts.Post/1000, "post-us")
			b.ReportMetric(ts.Wait/1000, "wait-us")
			b.ReportMetric(ts.Total/1000, "total-us")
		})
	}
}

func BenchmarkFig9_DslashScaling(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var tf float64
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 32, Approach: a}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						tf = qcd.Tflops(benchLattice, r.Total)
					}
				})
			}
			b.ReportMetric(tf, "TFLOPs")
		})
	}
}

func BenchmarkFig10_DslashSplitPhi(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var ts qcd.TimeSplit
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 8, Approach: a, Profile: model.EndeavorPhi()}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						ts = r
					}
				})
			}
			b.ReportMetric(100*ts.Wait/ts.Total, "wait%")
		})
	}
}

func BenchmarkFig11_Solver(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var tf float64
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 16, Approach: a}, func(env *sim.Env) {
					r := qcd.RunSolver(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						tf = qcd.SolverTflops(benchLattice, r)
					}
				})
			}
			b.ReportMetric(tf, "TFLOPs")
		})
	}
}

func BenchmarkFig12_ThreadGroups(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				var ref, tg float64
				sim.Run(sim.Config{Ranks: 32, Approach: a}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						ref = r.Total
					}
				})
				sim.Run(sim.Config{Ranks: 32, Approach: a, ThreadLevel: sim.Multiple}, func(env *sim.Env) {
					r := qcd.RunDslashThreadGroups(env, benchLattice, 4, 1, 2)
					if env.Rank() == 0 {
						tg = r
					}
				})
				ratio = ref / tg
			}
			b.ReportMetric(ratio, "tg-speedup")
		})
	}
}

func BenchmarkTable2_FFTSplit(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var sp fft.Split
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 4, Approach: a, Profile: model.EndeavorPhi()}, func(env *sim.Env) {
					r := fft.RunPipelined(env, 1<<21, 4, 1, 2)
					if env.Rank() == 0 {
						sp = r
					}
				})
			}
			b.ReportMetric(sp.Post/1000, "post-us")
			b.ReportMetric(sp.Wait/1e6, "wait-ms")
		})
	}
}

func BenchmarkFig13_FFTWeakScaling(b *testing.B) {
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var gf float64
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 16, Approach: a}, func(env *sim.Env) {
					r := fft.RunPipelined(env, 1<<22, 4, 1, 2)
					if env.Rank() == 0 {
						gf = fft.Gflops((1<<22)*16, r.Total)
					}
				})
			}
			b.ReportMetric(gf, "GFLOPs")
		})
	}
}

func BenchmarkFig14_CNNTraining(b *testing.B) {
	cfg := cnn.VGGLike()
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		b.Run(a.String(), func(b *testing.B) {
			var ips float64
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 32, Approach: a}, func(env *sim.Env) {
					r := cnn.RunHybrid(env, cfg, 1, 2)
					if env.Rank() == 0 {
						ips = cnn.ImagesPerSec(cfg, r)
					}
				})
			}
			b.ReportMetric(ips, "img/s")
		})
	}
}

// ---- ablations: the design choices DESIGN.md calls out ----

// BenchmarkAblationEagerThreshold sweeps the eager→rendezvous switch: the
// 128 KB default trades post-time cost (eager copies) against handshake
// stalls.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thr := range []int{16 << 10, 128 << 10, 1 << 20} {
		b.Run(bench.SizeLabel(thr), func(b *testing.B) {
			p := model.Endeavor()
			p.EagerThreshold = thr
			var ts qcd.TimeSplit
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 16, Approach: sim.Baseline, Profile: p}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						ts = r
					}
				})
			}
			b.ReportMetric(ts.Total/1000, "dslash-total-us")
		})
	}
}

// BenchmarkAblationCommandQueueCap shows the offload command queue
// capacity is not a throughput limiter until it is absurdly small.
func BenchmarkAblationCommandQueueCap(b *testing.B) {
	for _, cap := range []int{4, 64, 4096} {
		b.Run(bench.SizeLabel(cap), func(b *testing.B) {
			p := model.Endeavor()
			p.CommandQueueCap = cap
			var ts qcd.TimeSplit
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 8, Approach: sim.Offload, Profile: p}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						ts = r
					}
				})
			}
			b.ReportMetric(ts.Total/1000, "dslash-total-us")
		})
	}
}

// BenchmarkAblationLockModel quantifies how much of the comm-self penalty
// is the THREAD_MULTIPLE lock: with the lock costs zeroed, comm-self
// approaches offload's latency.
func BenchmarkAblationLockModel(b *testing.B) {
	for _, name := range []string{"with-lock", "no-lock"} {
		b.Run(name, func(b *testing.B) {
			p := model.Endeavor()
			if name == "no-lock" {
				p.MTLockAcquire, p.MTLockBounce, p.MTWaitSpin = 0, 0, 0
			}
			var last []bench.LatencyResult
			for i := 0; i < b.N; i++ {
				last = bench.OSULatency(sim.Config{Approach: sim.CommSelf, Profile: p}, []int{8}, 10)
			}
			b.ReportMetric(last[0].LatencyNs/1000, "latency-us@8B")
		})
	}
}

// BenchmarkAblationOffloadThreadCost quantifies the compute cost of
// dedicating a core: the paper's claim is that it is small and outweighed.
func BenchmarkAblationOffloadThreadCost(b *testing.B) {
	for _, cost := range []float64{0, 0.5, 1, 2} {
		b.Run(bench.SizeLabel(int(cost*10)), func(b *testing.B) {
			p := model.Endeavor()
			p.OffloadThreadCost = cost
			var ts qcd.TimeSplit
			for i := 0; i < b.N; i++ {
				sim.Run(sim.Config{Ranks: 16, Approach: sim.Offload, Profile: p}, func(env *sim.Env) {
					r := qcd.RunDslash(env, benchLattice, 1, 2)
					if env.Rank() == 0 {
						ts = r
					}
				})
			}
			b.ReportMetric(ts.Internal/1000, "internal-us")
		})
	}
}

// BenchmarkObsDisabledHook measures the real cost of an observability hook
// on the absent recorder of an untraced run — the overhead every MPI call
// pays when tracing is off. The acceptance bar is single-digit nanoseconds
// (a nil check); obs's TestDisabledHookOverhead enforces the < 5 ns bound.
func BenchmarkObsDisabledHook(b *testing.B) {
	var nilRec *obs.Recorder
	for i := 0; i < b.N; i++ {
		nilRec.Progressed(obs.TApp)
	}
}
