package qcd

import (
	"fmt"
	"math"
	"testing"

	"mpioffload/internal/model"
	"mpioffload/sim"
)

func TestWorkloadMessageSizes(t *testing.T) {
	// The paper reports ~48 KB messages in all directions at 256 nodes
	// (512 ranks) on the 32³×256 lattice (§4.3). Our decomposition should
	// place every face between ~24 KB and ~128 KB there, with at least one
	// direction near 48 KB.
	L := [Nd]int{32, 32, 32, 256}
	w := NewWorkload(L, 512, 0)
	if len(w.dirs) == 0 {
		t.Fatal("no communication directions")
	}
	near48 := false
	for _, d := range w.dirs {
		if d.bytes < 24<<10 || d.bytes > 210<<10 {
			t.Errorf("direction dim %d: %d bytes out of plausible range", d.d, d.bytes)
		}
		if d.bytes >= 40<<10 && d.bytes <= 60<<10 {
			near48 = true
		}
	}
	if !near48 {
		t.Errorf("no direction near the paper's 48 KB: %+v", w.dirs)
	}
	// Below the eager threshold at this scale — the regime where the
	// baseline's post time explodes (Table 1's 50 µs at 256 nodes).
	if w.MaxFaceBytes() > 128<<10 {
		t.Errorf("largest face %d should be below the eager threshold at 512 ranks", w.MaxFaceBytes())
	}
}

func TestWorkloadVolumeConservation(t *testing.T) {
	L := [Nd]int{32, 32, 32, 256}
	for _, ranks := range []int{16, 64, 256, 512} {
		total := 0
		for r := 0; r < ranks; r += ranks / 4 { // sample ranks (homogeneous)
			w := NewWorkload(L, ranks, r)
			if v := w.G.Volume() * ranks; v != w.G.GlobalVolume() {
				t.Errorf("ranks=%d: local volume %d × %d != global %d",
					ranks, w.G.Volume(), ranks, w.G.GlobalVolume())
			}
			if b := w.BoundarySites(); b <= 0 || b >= w.G.Volume() {
				t.Errorf("ranks=%d: boundary sites %d of %d", ranks, b, w.G.Volume())
			}
			total += w.G.Volume()
		}
		_ = total
	}
}

func TestTflopsArithmetic(t *testing.T) {
	L := [Nd]int{32, 32, 32, 256}
	// 8.39M sites × 1320 flops in 1 ms = 11.07 Tflop / 1e6 ns ≈ 11.07 TF.
	got := Tflops(L, 1e6)
	if got < 11.0 || got > 11.2 {
		t.Fatalf("Tflops = %v", got)
	}
	if s := SolverTflops(L, 1e6); s <= 2*got || s >= 2.5*got {
		t.Fatalf("SolverTflops = %v (want ≈2.2× Dslash)", s)
	}
}

func TestDslashModelShapes(t *testing.T) {
	// The Table 1 headline at model scale: offload post ≪ baseline post at
	// a scale where messages are eager, with single-digit compute slowdown.
	L := [Nd]int{16, 16, 16, 64}
	get := func(a sim.Approach) TimeSplit {
		var ts TimeSplit
		sim.Run(sim.Config{Ranks: 64, Approach: a}, func(env *sim.Env) {
			r := RunDslash(env, L, 1, 2)
			if env.Rank() == 0 {
				ts = r
			}
		})
		return ts
	}
	b, o := get(sim.Baseline), get(sim.Offload)
	if o.Post >= b.Post/2 {
		t.Errorf("offload post %v vs baseline %v: reduction too small", o.Post, b.Post)
	}
	slow := o.Internal/b.Internal - 1
	if slow < 0 || slow > 0.08 {
		t.Errorf("compute slowdown %.1f%%, want small single digits", 100*slow)
	}
	if o.Total >= b.Total {
		t.Errorf("offload total %v not better than baseline %v", o.Total, b.Total)
	}
}

func TestDslashModelAcrossProfiles(t *testing.T) {
	L := [Nd]int{16, 16, 16, 32}
	for _, p := range []*model.Profile{model.Endeavor(), model.EndeavorPhi(), model.Edison()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			pp := *p
			sim.Run(sim.Config{Ranks: 8, Approach: sim.Offload, Profile: &pp}, func(env *sim.Env) {
				ts := RunDslash(env, L, 1, 1)
				if env.Rank() == 0 && (ts.Total <= 0 || ts.Internal <= 0) {
					t.Errorf("degenerate split %+v", ts)
				}
			})
		})
	}
}

func TestCoreSpecBetweenBaselineAndOffload(t *testing.T) {
	// Fig 9b: Cray core specialization improves on baseline but loses to
	// the offload thread.
	L := [Nd]int{16, 16, 16, 64}
	tot := map[sim.Approach]float64{}
	for _, a := range []sim.Approach{sim.Baseline, sim.CoreSpec, sim.Offload} {
		p := model.Edison()
		sim.Run(sim.Config{Ranks: 64, Approach: a, Profile: p}, func(env *sim.Env) {
			ts := RunDslash(env, L, 1, 2)
			if env.Rank() == 0 {
				tot[a] = ts.Total
			}
		})
	}
	if !(tot[sim.CoreSpec] < tot[sim.Baseline]) {
		t.Errorf("core-spec (%v) should beat baseline (%v)", tot[sim.CoreSpec], tot[sim.Baseline])
	}
	if !(tot[sim.Offload] < tot[sim.Baseline]) {
		t.Errorf("offload (%v) should beat baseline (%v)", tot[sim.Offload], tot[sim.Baseline])
	}
}

func TestAssignDirsBalances(t *testing.T) {
	dirs := []dir{{bytes: 100}, {bytes: 90}, {bytes: 50}, {bytes: 40}, {bytes: 10}, {bytes: 10}}
	owner := assignDirs(dirs, 2)
	load := map[int]int{}
	for i, d := range dirs {
		load[owner[i]] += d.bytes
	}
	if diff := load[0] - load[1]; diff > 20 || diff < -20 {
		t.Fatalf("unbalanced assignment: %v", load)
	}
}

func TestThreadGroupsProduceSaneTimes(t *testing.T) {
	L := [Nd]int{16, 16, 16, 64}
	sim.Run(sim.Config{Ranks: 32, Approach: sim.Offload, ThreadLevel: sim.Multiple}, func(env *sim.Env) {
		d := RunDslashThreadGroups(env, L, 4, 1, 1)
		if env.Rank() == 0 && d <= 0 {
			t.Errorf("thread-group iteration time %v", d)
		}
	})
}

// TestComputeTimeMatchesEnvCompute: the Dslash model charges compute at the
// rate Env.Compute uses, including when a dedicated communication thread
// gives up its share.
func TestComputeTimeMatchesEnvCompute(t *testing.T) {
	p := model.Endeavor()
	for _, a := range []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload} {
		sim.Run(sim.Config{Ranks: 1, Approach: a, Profile: p}, func(env *sim.Env) {
			const flops = 1e10
			start := env.Now()
			env.Compute(flops / DslashEff)
			got := float64(env.Now() - start)
			if want := computeTime(env, flops); math.Abs(got-want) > 1 {
				t.Errorf("%s: computeTime = %.0f ns, Env.Compute took %.0f ns", a, want, got)
			}
		})
	}
}

func ExampleChooseGrid() {
	grid := ChooseGrid([Nd]int{32, 32, 32, 256}, 512)
	fmt.Println(grid)
	// Output: [2 4 4 16]
}
