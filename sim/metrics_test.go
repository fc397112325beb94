package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// latencyRun is a blocking Send/Recv ping-pong — the OSU-latency shape.
func latencyRun(a Approach, size, iters int, tr *obs.Trace) Result {
	return Run(Config{Ranks: 2, Approach: a, Profile: interNodeProfile(), Trace: tr},
		func(env *Env) {
			c := env.World
			buf := make([]byte, size)
			for i := 0; i < iters; i++ {
				if env.Rank() == 0 {
					c.Send(buf, 1, i)
					c.Recv(buf, 1, i)
				} else {
					c.Recv(buf, 0, i)
					c.Send(buf, 0, i)
				}
			}
		})
}

// overlapRun is a nonblocking Irecv/Isend + compute + Wait exchange — the
// Fig 2 overlap shape.
func overlapRun(a Approach, size, iters int, tr *obs.Trace) Result {
	return Run(Config{Ranks: 2, Approach: a, Profile: interNodeProfile(), Trace: tr},
		func(env *Env) {
			c := env.World
			peer := 1 - env.Rank()
			sbuf := make([]byte, size)
			rbuf := make([]byte, size)
			for i := 0; i < iters; i++ {
				rr := c.Irecv(rbuf, peer, i)
				rs := c.Isend(sbuf, peer, i)
				env.ComputeWithProgress(50_000, 5_000)
				c.Wait(&rr)
				c.Wait(&rs)
			}
		})
}

// TestMetricsInvariants pins down, per approach, who issues MPI operations
// and who drives progress — the structural claims of the paper the other
// tests only measure indirectly. Every run carries a trace so the
// thread-class attribution counters are live.
func TestMetricsInvariants(t *testing.T) {
	workloads := []struct {
		name     string
		run      func(a Approach, tr *obs.Trace) Result
		blocking bool // uses Send/Recv (conversion candidates under offload)
	}{
		{"latency", func(a Approach, tr *obs.Trace) Result {
			return latencyRun(a, 4<<10, 10, tr)
		}, true},
		{"overlap", func(a Approach, tr *obs.Trace) Result {
			return overlapRun(a, 256<<10, 6, tr)
		}, false},
	}
	for _, w := range workloads {
		for _, a := range []Approach{Baseline, Iprobe, CommSelf, Offload} {
			a := a
			t.Run(w.name+"/"+a.String(), func(t *testing.T) {
				tr := obs.NewTrace(obs.Options{})
				m := w.run(a, tr).Metrics

				// Invariants shared by every approach.
				if m.Recvs == 0 || m.EagerSends+m.RdvSends == 0 {
					t.Fatalf("no traffic recorded: %+v", m)
				}
				if m.Events == 0 {
					t.Fatal("trace attached but no events recorded")
				}
				if m.IssuesApp+m.IssuesAgent != m.EagerSends+m.RdvSends+m.Recvs {
					t.Fatalf("classified issues %d+%d do not cover engine posts %d",
						m.IssuesApp, m.IssuesAgent, m.EagerSends+m.RdvSends+m.Recvs)
				}

				switch a {
				case Baseline, Iprobe:
					// No agent exists: everything stays on application
					// threads and the offload path is never exercised.
					if m.Submitted != 0 || m.CmdQueueHWM != 0 || m.ReqPoolHWM != 0 {
						t.Fatalf("offload counters nonzero without offload: %+v", m)
					}
					if m.IssuesAgent != 0 || m.ProgressAgent != 0 {
						t.Fatalf("agent activity without an agent: %+v", m)
					}
					if m.IssuesApp == 0 || m.ProgressApp == 0 {
						t.Fatalf("application issues/progress missing: %+v", m)
					}
					if m.Conversions != 0 {
						t.Fatalf("conversions counted off the offload path: %d", m.Conversions)
					}
				case CommSelf:
					// The progress thread drives the engine but never posts
					// operations; commands never exist.
					if m.ProgressAgent == 0 {
						t.Fatalf("comm-self agent never progressed: %+v", m)
					}
					if m.IssuesAgent != 0 || m.Submitted != 0 {
						t.Fatalf("comm-self agent issued operations: %+v", m)
					}
					if m.IssuesApp == 0 {
						t.Fatalf("application issues missing: %+v", m)
					}
				case Offload:
					// §3: application threads only enqueue; every MPI call
					// is issued — and all progress driven — by the offload
					// thread.
					if m.Submitted == 0 || m.Submitted != m.Issued || m.Issued != m.Completed {
						t.Fatalf("command pipeline unbalanced: sub=%d iss=%d done=%d",
							m.Submitted, m.Issued, m.Completed)
					}
					if m.IssuesApp != 0 || m.ProgressApp != 0 {
						t.Fatalf("application thread entered MPI under offload: %+v", m)
					}
					if m.IssuesAgent == 0 || m.ProgressAgent == 0 {
						t.Fatalf("offload thread idle: %+v", m)
					}
					if m.CmdQueueHWM < 1 || m.ReqPoolHWM < 1 {
						t.Fatalf("high-water marks never moved: q=%d pool=%d",
							m.CmdQueueHWM, m.ReqPoolHWM)
					}
					if m.TestanyPolls == 0 || m.ProgressNs == 0 {
						t.Fatalf("duty cycle not recorded: %+v", m)
					}
					if w.blocking && m.Conversions == 0 {
						t.Fatal("blocking calls not counted as conversions")
					}
					if !w.blocking && m.Conversions != 0 {
						t.Fatalf("nonblocking workload counted %d conversions", m.Conversions)
					}
				}
			})
		}
	}
}

// TestMetricsWithoutTrace checks the always-on counters survive without a
// recorder while the tracer-derived attribution stays zero.
func TestMetricsWithoutTrace(t *testing.T) {
	m := latencyRun(Offload, 4<<10, 10, nil).Metrics
	if m.Submitted == 0 || m.Completed == 0 || m.CmdQueueHWM == 0 || m.ReqPoolHWM == 0 {
		t.Fatalf("always-on counters missing without trace: %+v", m)
	}
	if m.Events != 0 || m.IssuesAgent != 0 || m.ProgressNs != 0 || m.Conversions != 0 {
		t.Fatalf("tracer-derived counters nonzero without trace: %+v", m)
	}
}

// TestEnvMetricsAccessor checks the live per-rank accessor.
func TestEnvMetricsAccessor(t *testing.T) {
	var mid Metrics
	Run(Config{Ranks: 2, Approach: Offload, Profile: interNodeProfile()}, func(env *Env) {
		c := env.World
		buf := make([]byte, 64)
		if env.Rank() == 0 {
			c.Send(buf, 1, 0)
			mid = env.Metrics()
		} else {
			c.Recv(buf, 0, 0)
		}
	})
	if mid.Submitted == 0 {
		t.Fatalf("live metrics empty mid-run: %+v", mid)
	}
}

// jitteryRun executes an eager-size ping-pong over a jittery inter-node
// fabric and returns the exported trace bytes plus a checksum of
// every payload received at rank 0.
func jitteryRun(t *testing.T, jitterSeed int64) ([]byte, [32]byte) {
	t.Helper()
	p := interNodeProfile()
	p.LinkJitter = 0.05
	p.JitterSeed = jitterSeed
	tr := obs.NewTrace(obs.Options{})
	var sum [32]byte
	Run(Config{
		Ranks: 2, Approach: Offload, Profile: p,
		Trace: tr,
	}, func(env *Env) {
		c := env.World
		h := sha256.New()
		buf := make([]byte, 512)
		for i := 0; i < 20; i++ {
			if env.Rank() == 0 {
				for j := range buf {
					buf[j] = byte(i + j)
				}
				c.Send(buf, 1, i)
				c.Recv(buf, 1, i)
				h.Write(buf)
			} else {
				c.Recv(buf, 0, i)
				c.Send(buf, 0, i)
			}
		}
		if env.Rank() == 0 {
			copy(sum[:], h.Sum(nil))
		}
	})
	var out bytes.Buffer
	if err := obs.WriteChrome(&out, tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	return out.Bytes(), sum
}

// TestTraceDeterminism checks the tracer inherits the simulation's
// determinism: the same seeds yield byte-identical exports, a different
// jitter seed yields a different trace but identical application results.
func TestTraceDeterminism(t *testing.T) {
	trace1a, sum1a := jitteryRun(t, 1)
	trace1b, sum1b := jitteryRun(t, 1)
	trace2, sum2 := jitteryRun(t, 2)

	if !bytes.Equal(trace1a, trace1b) {
		t.Fatal("same seeds produced different trace bytes")
	}
	if sum1a != sum1b {
		t.Fatal("same seeds produced different payloads")
	}
	if bytes.Equal(trace1a, trace2) {
		t.Fatal("different jitter seeds produced identical traces")
	}
	if sum1a != sum2 {
		t.Fatal("jitter changed application results")
	}
}

// TestChromeExportGolden locks the export format: a fixed 2-rank offload
// ping-pong must render byte-for-byte as the checked-in golden file.
// Regenerate with `go test ./sim -run Golden -update` after intentional
// format changes.
func TestChromeExportGolden(t *testing.T) {
	tr := obs.NewTrace(obs.Options{})
	latencyRun(Offload, 512, 2, tr)
	var out bytes.Buffer
	if err := obs.WriteChrome(&out, tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	golden := filepath.Join("testdata", "pingpong_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("export differs from golden (%d vs %d bytes); run with -update if intentional",
			out.Len(), len(want))
	}
}

// TestFlatGoldenTraceGuard is the flat-fabric preservation guard: the
// 2-rank offload ping-pong must export the checked-in golden trace byte
// for byte, with no -update escape hatch.
func TestFlatGoldenTraceGuard(t *testing.T) {
	tr := obs.NewTrace(obs.Options{})
	latencyRun(Offload, 512, 2, tr)
	var out bytes.Buffer
	if err := obs.WriteChrome(&out, tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "pingpong_trace.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("flat export differs from golden (%d vs %d bytes)", out.Len(), len(want))
	}
}

// TestTraceSpansCoverEveryMessage checks the acceptance criterion directly:
// every offloaded command appears in the export as a full
// enqueue→issue→complete span pair on its rank's timeline.
func TestTraceSpansCoverEveryMessage(t *testing.T) {
	tr := obs.NewTrace(obs.Options{})
	res := latencyRun(Offload, 4<<10, 10, tr)
	for _, run := range tr.Runs {
		for _, rec := range run.Ranks {
			var enq, deq, done int64
			for _, ev := range rec.Events() {
				switch ev.Kind {
				case obs.EvCmdEnqueue:
					enq++
				case obs.EvCmdDequeue:
					deq++
				case obs.EvCmdComplete:
					done++
				}
			}
			if enq == 0 || enq != deq || deq != done {
				t.Fatalf("rank %d spans unbalanced: enq=%d deq=%d done=%d",
					rec.Rank(), enq, deq, done)
			}
		}
	}
	if res.Metrics.Submitted == 0 {
		t.Fatal("no commands submitted")
	}
}

// TestPingPongPayloadsWithTrace guards against the instrumentation
// perturbing the simulation: a traced run and an untraced run must agree on
// the payloads and the virtual-time result.
func TestPingPongPayloadsWithTrace(t *testing.T) {
	plain := latencyRun(Offload, 4<<10, 10, nil)
	traced := latencyRun(Offload, 4<<10, 10, obs.NewTrace(obs.Options{}))
	if plain.Elapsed != traced.Elapsed {
		t.Fatalf("tracing changed virtual time: %d vs %d", plain.Elapsed, traced.Elapsed)
	}
}

// TestFlowPairsCoverEveryMessage checks the causal-correlation acceptance
// criterion: in a rendezvous-sized exchange, every flow-stamped message
// must appear in the export as a matched ph:"s"/ph:"f" pair, with nothing
// dropped.
func TestFlowPairsCoverEveryMessage(t *testing.T) {
	for _, a := range []Approach{Baseline, Offload} {
		t.Run(a.String(), func(t *testing.T) {
			tr := obs.NewTrace(obs.Options{})
			res := latencyRun(a, 256<<10, 4, tr) // > eager limit: RTS/CTS path
			m := res.Metrics
			if m.RdvSends == 0 {
				t.Fatalf("no rendezvous traffic: %+v", m)
			}
			if m.FlowsSent == 0 || m.FlowsSent != m.FlowsLanded {
				t.Fatalf("flows sent=%d landed=%d, want equal and nonzero",
					m.FlowsSent, m.FlowsLanded)
			}
			var out bytes.Buffer
			st, err := obs.WriteChromeStats(&out, tr)
			if err != nil {
				t.Fatal(err)
			}
			if int64(st.FlowPairs) != m.FlowsSent {
				t.Fatalf("export matched %d flow pairs, want one per message (%d)",
					st.FlowPairs, m.FlowsSent)
			}
			if st.FlowEventsDropped != 0 || st.OrphanSpanEnds != 0 {
				t.Fatalf("unexpected drops with an ample ring: %+v", st)
			}
		})
	}
}

// TestLatencyHistogramsPopulated checks the per-layer histograms surface
// through sim.Metrics: queue-wait and service for offloaded commands,
// transit for every flow, handshake RTT for rendezvous, plus the always-on
// depth distributions.
func TestLatencyHistogramsPopulated(t *testing.T) {
	tr := obs.NewTrace(obs.Options{})
	m := latencyRun(Offload, 256<<10, 4, tr).Metrics
	if m.QueueWaitH.Count != m.Submitted {
		t.Errorf("queue-wait samples %d != commands %d", m.QueueWaitH.Count, m.Submitted)
	}
	if m.ServiceH.Count != m.Completed {
		t.Errorf("service samples %d != completions %d", m.ServiceH.Count, m.Completed)
	}
	if m.TransitH.Count == 0 || m.TransitH.P50() <= 0 {
		t.Errorf("transit histogram empty: %s", m.TransitH.String())
	}
	if m.RdvRttH.Count == 0 || m.RdvRttH.P50() <= 0 {
		t.Errorf("rendezvous-RTT histogram empty: %s", m.RdvRttH.String())
	}
	if m.CmdQDepthH.Count == 0 || m.PoolOccH.Count == 0 {
		t.Errorf("depth distributions empty: q=%s pool=%s",
			m.CmdQDepthH.String(), m.PoolOccH.String())
	}
	if m.QueueWaitH.P99() < m.QueueWaitH.P50() || m.QueueWaitH.Max < m.QueueWaitH.P99() {
		t.Errorf("queue-wait quantiles inverted: %s", m.QueueWaitH.String())
	}
	// Without a trace the latency histograms stay empty but the structural
	// depth samplers keep working.
	m2 := latencyRun(Offload, 256<<10, 4, nil).Metrics
	if m2.QueueWaitH.Count != 0 || m2.TransitH.Count != 0 {
		t.Errorf("latency histograms populated without a trace")
	}
	if m2.CmdQDepthH.Count == 0 {
		t.Errorf("depth distribution empty without a trace")
	}
}

// TestCriticalPathPartition checks the tentpole acceptance criterion: for a
// seeded 2-rank rendezvous run, the critical-path attribution must sum to
// the run's elapsed virtual time exactly (±0), for every approach, and be
// byte-deterministic across repeated analyses and repeated runs.
func TestCriticalPathPartition(t *testing.T) {
	for _, a := range []Approach{Baseline, Iprobe, CommSelf, Offload} {
		t.Run(a.String(), func(t *testing.T) {
			tr := obs.NewTrace(obs.Options{})
			res := latencyRun(a, 256<<10, 4, tr)
			reports := critpath.Analyze(tr)
			if len(reports) != 1 {
				t.Fatalf("got %d reports, want 1", len(reports))
			}
			rep := reports[0]
			if rep.Total != int64(res.Elapsed) {
				t.Fatalf("report total %d != run elapsed %d", rep.Total, res.Elapsed)
			}
			if rep.Sum() != rep.Total {
				t.Fatalf("attribution sums to %d, elapsed is %d (must be exact)\n%s",
					rep.Sum(), rep.Total, rep.Table())
			}
			if rep.Ns[critpath.Network] == 0 {
				t.Errorf("no network time on the critical path of a ping-pong\n%s", rep.Table())
			}
			if a == Offload && rep.Ns[critpath.QueueWait]+rep.Ns[critpath.Service] == 0 {
				t.Errorf("offload run shows no queue/service time\n%s", rep.Table())
			}

			// Determinism: re-analysis and a re-run must render identically.
			if again := critpath.Analyze(tr)[0].Table(); again != rep.Table() {
				t.Fatalf("re-analysis differs:\n%s\nvs\n%s", rep.Table(), again)
			}
			tr2 := obs.NewTrace(obs.Options{})
			latencyRun(a, 256<<10, 4, tr2)
			if rerun := critpath.Analyze(tr2)[0].Table(); rerun != rep.Table() {
				t.Fatalf("re-run analysis differs:\n%s\nvs\n%s", rep.Table(), rerun)
			}
		})
	}
}
