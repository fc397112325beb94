package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mpioffload/apps/fft"
	"mpioffload/apps/qcd"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/telemetry"
	"mpioffload/sim"
)

// The sim workloads time the virtual-time simulator in host time, the way
// regenerating a figure of the paper uses it: build a cluster, run an
// application model under Baseline and then under Offload. One such pair
// is one repetition. The simulated results are exact, so they are the
// correctness check: every repetition must reproduce the first one, and at
// the default seed the recorded golden values.

// simJitter is the link-latency noise whose stream the seed selects. The
// paper's configurations run without noise and have no other random input;
// 2 % keeps message and byte counts and the shape of the event stream, and
// makes virtual time differ from seed to seed.
const simJitter = 0.02

type simShape struct {
	ranks   int
	program func(env *sim.Env)
}

func fftShape(tiny bool) simShape {
	nodes, perNode := 64, 1<<29
	if tiny {
		nodes, perNode = 4, 1<<20
	}
	p := model.Endeavor()
	points := perNode / p.RanksPerNode
	return simShape{ranks: nodes * p.RanksPerNode, program: func(env *sim.Env) {
		fft.RunPipelined(env, points, 4, 1, 2)
	}}
}

func dslashShape(tiny bool) simShape {
	nodes, iters := 256, 12
	if tiny {
		nodes, iters = 8, 2
	}
	L := [qcd.Nd]int{32, 32, 32, 256}
	return simShape{ranks: nodes * model.Endeavor().RanksPerNode, program: func(env *sim.Env) {
		qcd.RunDslash(env, L, 1, iters)
	}}
}

// simOutcome is what must repeat exactly for one approach.
type simOutcome struct {
	VirtualNs int64 `json:"virtual_ns"`
	Msgs      int64 `json:"msgs"`
	Bytes     int64 `json:"bytes"`
	Events    int64 `json:"-"` // kernel events: exact too, but free to change between commits
}

// simRun is one sim.Run call as the benchmark saw it.
type simRun struct {
	simOutcome
	setupS, wallS float64
	metrics       sim.Metrics
}

// kernelEvents reads sim_kernel_events_total back from the registry the
// run registered its kernel with.
func kernelEvents(reg *telemetry.Registry) int64 {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		return 0
	}
	var n float64
	_ = json.Unmarshal(vars["sim_kernel_events_total"], &n) // absent reads 0, which the repeat check reports
	return int64(n)
}

func runApproach(sh simShape, a sim.Approach, seed int64, trace *obs.Trace, tk *track, parent int64) simRun {
	prof := model.Endeavor()
	prof.LinkJitter = simJitter
	prof.JitterSeed = seed
	reg := telemetry.New()
	var first time.Time
	var once sync.Once
	id := tk.open("sim.Run "+a.String(), parent, noMsg)
	setupID := tk.open("set-up "+a.String(), id, noMsg)
	t0 := time.Now()
	res := sim.Run(sim.Config{Ranks: sh.ranks, Approach: a, Profile: prof, Trace: trace, Telemetry: reg},
		func(env *sim.Env) {
			once.Do(func() { first = time.Now(); tk.close(setupID) })
			sh.program(env)
		})
	wall := time.Since(t0)
	tk.close(id)
	return simRun{
		simOutcome: simOutcome{VirtualNs: int64(res.Elapsed), Msgs: res.Net.Msgs, Bytes: res.Net.Bytes, Events: kernelEvents(reg)},
		setupS:     first.Sub(t0).Seconds(),
		wallS:      wall.Seconds(),
		metrics:    res.Metrics,
	}
}

// simRep is one repetition: Baseline, then Offload.
type simRep struct {
	base, off           simRun
	mallocs, allocBytes uint64
}

func (r simRep) setupS() float64 { return r.base.setupS + r.off.setupS }
func (r simRep) wallS() float64  { return r.base.wallS + r.off.wallS }
func (r simRep) msgs() int64     { return r.base.Msgs + r.off.Msgs }
func (r simRep) events() int64   { return r.base.Events + r.off.Events }

func runSimRep(sh simShape, seed int64, trace *obs.Trace, tk *track) simRep {
	var rep simRep
	runtime.GC()
	id := tk.open("repetition", 0, noMsg)
	rep.mallocs, rep.allocBytes = memDelta(func() {
		rep.base = runApproach(sh, sim.Baseline, seed, trace, tk, id)
		rep.off = runApproach(sh, sim.Offload, seed, trace, tk, id)
	})
	tk.close(id)
	return rep
}

// ---- golden values ------------------------------------------------------

//go:embed testdata/golden.json
var goldenJSON []byte

type goldenEntry struct {
	Baseline simOutcome `json:"baseline"`
	Offload  simOutcome `json:"offload"`
}

// goldenPath is where -update-golden writes, from the repository root or
// from this directory.
func goldenPath() string {
	if _, err := os.Stat("benchmark/testdata"); err == nil {
		return "benchmark/testdata/golden.json"
	}
	return "testdata/golden.json"
}

func loadGolden() (map[string]goldenEntry, error) {
	g := map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

func updateGolden(name string, e goldenEntry) error {
	g := map[string]goldenEntry{}
	if b, err := os.ReadFile(goldenPath()); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return err
		}
	}
	g[name] = e
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(), append(b, '\n'), 0o644)
}

func sameOutcome(a, b simOutcome, events bool) bool {
	return a.VirtualNs == b.VirtualNs && a.Msgs == b.Msgs && a.Bytes == b.Bytes && (!events || a.Events == b.Events)
}

// ---- workload run -------------------------------------------------------

func simWorkload(cfg runConfig, name string, sh simShape) (*result, error) {
	res := newResult()
	var first *simRep
	// account checks a repetition against the first one and, at the
	// default seed and full size, against the golden values. A repetition
	// fails wholesale: all of its messages count as failed.
	account := func(r simRep) error {
		res.attempted += r.msgs()
		if first == nil {
			first = &r
			if cfg.tiny {
				return nil
			}
			e := goldenEntry{Baseline: r.base.simOutcome, Offload: r.off.simOutcome}
			if cfg.updateGolden {
				if cfg.seed != defaultSeed {
					return fmt.Errorf("-update-golden records the default seed %d, not %d", defaultSeed, cfg.seed)
				}
				return updateGolden(name, e)
			}
			if cfg.seed == defaultSeed {
				g, err := loadGolden()
				if err != nil {
					return err
				}
				want, ok := g[name]
				if !ok || !sameOutcome(want.Baseline, e.Baseline, false) || !sameOutcome(want.Offload, e.Offload, false) {
					res.fail(r.msgs(), "simulated results differ from testdata/golden.json: got %+v, want %+v", e, want)
				}
			}
			return nil
		}
		if !sameOutcome(first.base.simOutcome, r.base.simOutcome, true) || !sameOutcome(first.off.simOutcome, r.off.simOutcome, true) {
			res.fail(r.msgs(), "repetition differs from the first: %+v %+v, first %+v %+v",
				r.base.simOutcome, r.off.simOutcome, first.base.simOutcome, first.off.simOutcome)
		}
		return nil
	}

	if !cfg.trace {
		return res, repeat(cfg.seconds, func() error {
			r := runSimRep(sh, cfg.seed, nil, nil)
			res.sample("setup_s", r.setupS())
			res.sample("wall_s", r.wallS())
			res.sample("msgs_per_s", float64(r.msgs())/r.wallS())
			return account(r)
		})
	}

	// The first repetition of a process pays for growing the heap; the
	// second is the untraced one the traced one is compared with.
	var plain simRep
	for i := 0; i < 2; i++ {
		plain = runSimRep(sh, cfg.seed, nil, nil)
		if err := account(plain); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	tk := tr.newTrack("benchmark", 1)
	// The simulator's own recorder supplies the agent duty cycle and poll
	// counts; a short ring keeps 512 ranks of it small.
	otr := obs.NewTrace(obs.Options{RingCap: 64})
	traced := runSimRep(sh, cfg.seed, otr, tk)
	if err := account(traced); err != nil {
		return nil, err
	}

	L := res.layer
	m := plain.off.metrics // command-path counters exist under Offload only
	tm := traced.off.metrics
	msgs, events := float64(plain.msgs()), float64(plain.events())
	L["trace.overhead_share"] = (traced.wallS() - plain.wallS()) / plain.wallS()
	L["vclock.events"] = events
	L["vclock.events_per_msg"] = events / msgs
	L["vclock.events_per_host_s"] = events / plain.wallS()
	L["fabric.msgs"] = msgs
	L["fabric.bytes"] = float64(plain.base.Bytes + plain.off.Bytes)
	pm := plain.base.metrics
	pm.Add(plain.off.metrics)
	L["proto.eager_sends"] = float64(pm.EagerSends)
	L["proto.rdv_sends"] = float64(pm.RdvSends)
	L["proto.progress_calls"] = float64(pm.ProgressCalls)
	L["proto.unexpected_hits"] = float64(pm.UnexpectedHits)
	L["core.submitted"] = float64(m.Submitted)
	L["core.cmdq_hwm"] = float64(m.CmdQueueHWM)
	L["core.reqpool_hwm"] = float64(m.ReqPoolHWM)
	L["core.mean_batch"] = tm.MeanBatch()
	L["core.testany_polls"] = float64(tm.TestanyPolls)
	L["core.polls_per_completion"] = tm.PollsPerCompletion()
	_, _, L["core.idle_share_virtual"] = tm.DutyCycle()
	L["sim.virtual_ns_baseline"] = float64(plain.base.VirtualNs)
	L["sim.virtual_ns_offload"] = float64(plain.off.VirtualNs)
	L["sim.allocs_per_event"] = float64(plain.mallocs) / events
	L["sim.alloc_bytes_per_msg"] = float64(plain.allocBytes) / msgs
	simBudget(cfg.log, name, L, simDrivers(L, cfg.tiny), plain, pm)
	if err := tr.writeChrome(cfg.traceFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "benchmark: %s: Chrome trace written to %s\n", name, cfg.traceFile)
	return res, nil
}
