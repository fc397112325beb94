// Package sim builds and runs simulated MPI clusters.
//
// A cluster is a set of ranks on a virtual-time kernel, connected by the
// modelled interconnect, each with a protocol engine. An approach is a
// choice of two things per rank: the mpi.Backend under the rank's
// communicators (Direct — the calling thread drives the engine, under the
// global lock at MPI_THREAD_MULTIPLE — or Offload) and the progress driver
// beside it (who makes progress when the application is not in MPI):
//
//	Baseline — Direct, no driver: MPI_THREAD_FUNNELED, progress happens
//	           only inside MPI calls (paper §2).
//	Iprobe   — Direct, driven by the application's MPI_Iprobe calls (the
//	           Env.Progress hook; paper §2.1).
//	CommSelf — Direct, driven by a progress thread sitting in MPI on a dup
//	           of MPI_COMM_SELF, which forces MPI_THREAD_MULTIPLE and its
//	           global lock (§2.2).
//	Offload  — the paper's contribution (§3): the Offload backend, whose
//	           dedicated thread (fed by a lock-free command queue and request
//	           pool) both carries the calls and makes the progress.
//	CoreSpec — Direct, driven by a platform progress agent à la Cray core
//	           specialization (compared in Fig 9b; only meaningful on the
//	           Edison profile).
//
// The approaches table below is the one place that turns an Approach into a
// backend, a driver, the lock decision and the hardware threads the driver
// consumes.
//
// Application programs are functions of an Env; they run once per rank as
// the rank's master thread and can fork thread teams (Env.ParallelN) whose
// members issue MPI calls concurrently (MPI_THREAD_MULTIPLE experiments).
package sim

import (
	"fmt"

	"mpioffload/internal/core"
	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/telemetry"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
	"mpioffload/mpi"
)

// Approach selects how ranks interact with MPI.
type Approach int

// The approaches compared throughout the paper's evaluation.
const (
	Baseline Approach = iota
	Iprobe
	CommSelf
	Offload
	CoreSpec
)

// approach is how one Approach is built.
type approach struct {
	name    string
	offload bool // the Offload backend; otherwise Direct
	// multiple forces MPI_THREAD_MULTIPLE whatever the application asks.
	multiple bool
	// probes makes Env.Progress issue an MPI_Iprobe.
	probes bool
	// agent, when set, spawns the rank's progress daemon, which occupies
	// one hardware thread.
	agent func(k *vclock.Kernel, eng *proto.Engine, p *model.Profile, rank int)
}

// approaches is indexed by Approach.
var approaches = [...]approach{
	Baseline: {name: "baseline"},
	Iprobe:   {name: "iprobe", probes: true},
	CommSelf: {name: "comm-self", multiple: true, agent: spawnCommSelf},
	Offload:  {name: "offload", offload: true},
	CoreSpec: {name: "core-spec", agent: spawnCoreSpec},
}

// spec returns a's row of the approaches table (an unknown value builds as
// Baseline).
func (a Approach) spec() approach {
	if a >= 0 && int(a) < len(approaches) {
		return approaches[a]
	}
	return approach{name: fmt.Sprintf("approach(%d)", int(a))}
}

// String returns the paper's name for the approach.
func (a Approach) String() string { return a.spec().name }

// ThreadLevel is the application's requested MPI threading level.
type ThreadLevel int

// Supported thread levels (Serialized behaves as Funneled here).
const (
	Funneled ThreadLevel = iota
	Multiple
)

// Config describes a cluster run.
type Config struct {
	// Ranks is the number of MPI ranks (default 2).
	Ranks int
	// Approach selects the progress strategy (default Baseline).
	Approach Approach
	// ThreadLevel is the application's threading level. CommSelf forces
	// Multiple (it needs a second thread inside MPI). Offload ignores it:
	// application threads never enter MPI at all.
	ThreadLevel ThreadLevel
	// Profile is the platform cost profile (default model.Endeavor()).
	Profile *model.Profile
	// Crashes kill ranks at fixed virtual times (nil = no rank fails). The
	// wire itself never loses a packet.
	Crashes []fabric.Crash
	// Watchdog, when > 0, is the per-request deadline in virtual ns: a
	// request still in flight that long after posting completes with
	// mpi.ErrTimeout (or mpi.ErrRankFailed when the peer crashed) instead
	// of blocking its Wait forever. 0 disables the watchdog.
	Watchdog float64
	// Trace, when non-nil, attaches an event recorder to every rank: the
	// run registers itself via Trace.StartRun and per-thread-class counters
	// and span events appear in Result (and in the Chrome export). nil
	// leaves only the always-on counters active.
	Trace *obs.Trace
	// Telemetry, when non-nil, registers the run's kernel event count as
	// sim_kernel_events_total, to be read once Run has returned. Successive
	// runs rebind the name, so the newest run wins.
	Telemetry *telemetry.Registry
}

// Result summarizes a cluster run.
type Result struct {
	// Elapsed is the virtual time at which the last rank finished.
	Elapsed vclock.Time
	// RankElapsed is each rank's finish time.
	RankElapsed []vclock.Time
	// Net is the fabric traffic summary.
	Net fabric.Stats
	// Metrics aggregates the per-layer observability counters across the
	// cluster. The always-on counters (command path, queue/pool high-water
	// marks, protocol stats) are filled on every run; the tracer-derived
	// counters (thread-class attribution, duty cycle, conversions) are
	// filled only when Config.Trace was attached.
	Metrics Metrics
}

// Env is one rank's execution environment (its master thread).
type Env struct {
	// World is the world communicator bound to the master thread.
	World *mpi.Comm

	k        *vclock.Kernel
	t        *vclock.Task
	eng      *proto.Engine
	off      *core.Offloader
	prof     *model.Profile
	approach Approach
	probes   bool // Env.Progress issues an MPI_Iprobe
	rank     int
	size     int
	hwThr    int     // integer application threads available
	effThr   float64 // effective threads for aggregate compute
}

// Rank returns this rank's world rank.
func (e *Env) Rank() int { return e.rank }

// Size returns the world size.
func (e *Env) Size() int { return e.size }

// Threads returns the number of application threads available to this rank
// (one less than the core count when a communication thread is dedicated).
func (e *Env) Threads() int { return e.hwThr }

// EffectiveThreads returns the thread count aggregate compute runs at: the
// core count less each dedicated communication thread's share
// (Profile.OffloadThreadCost), never below one. Env.Compute uses it, and
// workload models that charge compute at their own efficiency should too.
func (e *Env) EffectiveThreads() float64 { return e.effThr }

// Profile returns the platform profile.
func (e *Env) Profile() *model.Profile { return e.prof }

// Now returns the current virtual time in nanoseconds.
func (e *Env) Now() vclock.Time { return e.t.Now() }

// Compute models a perfectly parallel compute phase of the given flops
// spread over all available application threads. Approaches that dedicate
// a communication thread have fewer threads, so the same flops take
// slightly longer — the paper's "internal compute slowdown" (Table 1).
func (e *Env) Compute(flops float64) {
	e.t.SleepF(flops / (e.prof.ThreadFlops * e.effThr))
}

// ComputeTime advances this rank by an explicit duration (ns) of compute.
func (e *Env) ComputeTime(ns float64) { e.t.SleepF(ns) }

// ComputeWithProgress models a compute phase of total ns with the
// application-driven progress hook invoked every chunk ns — the paper's
// Listing 1 inner loops with PROGRESS statements. Under approaches other
// than Iprobe the hook is free, so this degenerates to ComputeTime.
func (e *Env) ComputeWithProgress(total, chunk float64) {
	if !e.probes || chunk <= 0 || chunk >= total {
		e.ComputeTime(total)
		e.Progress()
		return
	}
	done := 0.0
	for done < total {
		step := chunk
		if total-done < step {
			step = total - done
		}
		e.t.SleepF(step)
		done += step
		e.Progress()
	}
}

// Progress is the application-driven progress hook: under the Iprobe
// approach it issues an MPI_Iprobe (paper §2.1, Listing 1's PROGRESS);
// under every other approach it is a no-op.
func (e *Env) Progress() {
	if e.probes {
		e.World.Iprobe(mpi.AnySource, mpi.AnyTag)
	}
}

// Thread is one member of a fork-join thread team.
type Thread struct {
	// ID is the thread index within the team (0 = master).
	ID int
	// Comm is the world communicator bound to this thread.
	Comm *mpi.Comm
	// Env is the owning rank environment.
	Env *Env

	t *vclock.Task
}

// Now returns the current virtual time.
func (th *Thread) Now() vclock.Time { return th.t.Now() }

// ComputeTime advances this thread by an explicit duration (ns).
func (th *Thread) ComputeTime(ns float64) { th.t.SleepF(ns) }

// ParallelN runs fn on a team of n threads (thread 0 is the master).
func (e *Env) ParallelN(n int, fn func(th *Thread)) {
	if n < 1 {
		n = 1
	}
	done := 0
	join := vclock.NewEvent(fmt.Sprintf("join.%d", e.rank))
	for i := 1; i < n; i++ {
		i := i
		e.k.Go(fmt.Sprintf("rank%d.thr%d", e.rank, i), func(t *vclock.Task) {
			fn(&Thread{ID: i, Comm: e.World.Bind(t), Env: e, t: t})
			done++
			join.Broadcast(e.k)
		})
	}
	fn(&Thread{ID: 0, Comm: e.World, Env: e, t: e.t})
	for done < n-1 {
		e.t.Wait(join)
	}
	e.t.SleepF(e.prof.OMPBarrier)
}

// Run builds the cluster and executes program once per rank, returning
// when every rank's program has finished.
func Run(cfg Config, program func(env *Env)) Result {
	n := cfg.Ranks
	if n <= 0 {
		n = 2
	}
	prof := cfg.Profile
	if prof == nil {
		prof = model.Endeavor()
	}
	ap := cfg.Approach.spec()
	// The global lock guards a Direct engine that several threads enter;
	// the offload thread is the only one that enters its engine.
	locked := !ap.offload && (ap.multiple || cfg.ThreadLevel == Multiple)

	k := vclock.NewKernel()
	if cfg.Telemetry != nil {
		cfg.Telemetry.CounterFunc("sim_kernel_events_total", func() float64 { return float64(k.Stats().Events) })
	}
	fab := fabric.New(k, prof, n)
	fab.SetCrashes(cfg.Crashes)
	res := Result{RankElapsed: make([]vclock.Time, n)}

	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	nodes := fab.Nodes()
	engs := make([]*proto.Engine, 0, n)
	offs := make([]*core.Offloader, n)
	var runTrace *obs.RunTrace
	if cfg.Trace != nil {
		runTrace = cfg.Trace.StartRun(fmt.Sprintf("%s x%d", cfg.Approach, n), n)
	}

	for r := 0; r < n; r++ {
		r := r
		eng := proto.NewEngine(k, fab, prof, r)
		eng.Deadline = cfg.Watchdog
		if runTrace != nil {
			eng.Obs = runTrace.Ranks[r]
		}
		engs = append(engs, eng)
		var backend mpi.Backend
		if ap.offload {
			offs[r] = core.New(k, eng)
			backend = mpi.Offload(offs[r])
		} else {
			backend = mpi.Direct(eng, locked)
		}
		if ap.agent != nil {
			eng.HasAgent = true
			ap.agent(k, eng, prof, r)
		}
		// The dedicated communication thread — the offload agent or a
		// progress daemon — occupies one hardware thread and costs its
		// share of effective compute.
		dedicated := 0
		if ap.offload || ap.agent != nil {
			dedicated = 1
		}
		off := offs[r]
		hw := max(prof.ThreadsPerRank-dedicated, 1)
		eff := max(float64(prof.ThreadsPerRank)-float64(dedicated)*prof.OffloadThreadCost, 1)
		k.Go(fmt.Sprintf("rank%d", r), func(t *vclock.Task) {
			env := &Env{
				k: k, t: t, eng: eng, off: off, prof: prof,
				approach: cfg.Approach, probes: ap.probes, rank: r, size: n,
				hwThr: hw, effThr: eff,
			}
			env.World = mpi.NewComm(t, eng, backend, 0, ranks, r, nodes)
			program(env)
			res.RankElapsed[r] = t.Now()
		})
	}
	res.Elapsed = k.Run()
	res.Net = fab.Stats()
	res.Metrics = metricsOf(engs, offs)
	res.Metrics.CrashDrops = res.Net.CrashDrops
	if runTrace != nil {
		ends := make([]int64, n)
		for r, t := range res.RankElapsed {
			ends[r] = int64(t)
		}
		runTrace.SetEnd(int64(res.Elapsed), ends)
	}
	return res
}

// spawnCommSelf starts the §2.2 progress thread: it sits "inside MPI"
// (holding the global lock in bursts) whenever there has been recent
// communication activity, and parks when the rank goes quiet.
func spawnCommSelf(k *vclock.Kernel, eng *proto.Engine, p *model.Profile, rank int) {
	k.GoDaemon(fmt.Sprintf("commself.%d", rank), func(t *vclock.Task) {
		misses := 0
		for {
			seq := eng.Seq()
			eng.EnterLock(t)
			t.SleepF(p.CommSelfHold) // burst inside the progress engine
			eng.Progress(t)
			eng.ExitLock(t)
			if eng.Seq() != seq {
				// Something happened: keep hammering the lock — this is
				// the contention the master thread suffers under §2.2.
				misses = 0
				t.SleepF(p.CommSelfGap)
				continue
			}
			misses++
			if misses < 3 {
				t.SleepF(p.CommSelfGap)
				continue
			}
			// The rank has gone quiet; park until the next arrival (the
			// real thread stays blocked in MPI_Recv, but an idle progress
			// engine exerts no contention, so parking is equivalent).
			s := eng.Seq()
			eng.AwaitChange(t, s)
			misses = 0
		}
	})
}

// spawnCoreSpec starts a platform progress agent in the style of Cray core
// specialization: it drives the progress engine on a reserved core at a
// fixed cadence, without the comm-self lock pathology but also without the
// offload thread's immediacy.
func spawnCoreSpec(k *vclock.Kernel, eng *proto.Engine, p *model.Profile, rank int) {
	quantum := p.CoreSpecQuantum
	if quantum <= 0 {
		quantum = 2500
	}
	k.GoDaemon(fmt.Sprintf("corespec.%d", rank), func(t *vclock.Task) {
		lastAct := t.Now()
		for {
			seq := eng.Seq()
			eng.Progress(t)
			if eng.Seq() != seq {
				lastAct = t.Now()
			}
			if t.Now()-lastAct > vclock.Time(p.CommSelfWindow) {
				s := eng.Seq()
				eng.AwaitChange(t, s)
				lastAct = t.Now()
			} else {
				t.SleepF(quantum)
			}
		}
	})
}
