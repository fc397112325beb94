package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mpioffload/internal/obs/telemetry"
	"mpioffload/internal/vclock"
	"mpioffload/mpi"
)

// fingerprintProgram touches every mpi entry point a communicator routes
// through its backend: eager and rendezvous point-to-point (real and
// phantom), Test, Waitany and Waitall, Iprobe(AnySource), a collective,
// a window with Put, Accumulate and Fence, and the derived communicators of
// Dup and Split. Under Multiple a two-thread team adds concurrent traffic.
func fingerprintProgram(level ThreadLevel) func(env *Env) {
	return func(env *Env) {
		c := env.World
		n, me := c.Size(), c.Rank()
		right, left := (me+1)%n, (me+n-1)%n

		out, in := make([]byte, 256), make([]byte, 256)
		rr := c.Irecv(in, left, 1)
		rs := c.Isend(out, right, 1)
		pr := c.IrecvBytes(64<<10, left, 2)
		ps := c.IsendBytes(64<<10, right, 2)
		env.ComputeWithProgress(20_000, 5_000)
		for done := false; !done; {
			done, _ = c.Test(&rr)
		}
		c.Waitany(&pr, &ps)
		c.Waitall(&rr, &rs, &pr, &ps)

		switch me {
		case 0:
			c.Send(out[:8], 1, 9)
		case 1:
			for ok := false; !ok; {
				ok, _ = c.Iprobe(mpi.AnySource, mpi.AnyTag)
			}
			c.Recv(in[:8], mpi.AnySource, 9)
		}

		v := []float64{float64(me)}
		c.Allreduce(mpi.Float64Bytes(v), mpi.SumFloat64)

		win := make([]float64, n)
		w := c.WinCreate(mpi.Float64Bytes(win))
		w.Put(mpi.Float64Bytes([]float64{1}), right, 8*me)
		w.Accumulate(mpi.Float64Bytes([]float64{2}), left, 0, mpi.SumFloat64)
		w.Fence()

		d := c.Dup()
		d.Barrier()
		s := c.Split(me%2, -me)
		s.Allreduce(mpi.Float64Bytes([]float64{1}), mpi.SumFloat64)

		if level == Multiple {
			env.ParallelN(2, func(th *Thread) {
				tag := 100 + th.ID
				th.Comm.Sendrecv(out[:64], right, tag, make([]byte, 64), left, tag)
			})
		}
		env.Compute(1e6)
	}
}

// TestCrossApproachFingerprint pins the virtual time and kernel event count
// of fingerprintProgram under every approach and thread level. Virtual time
// is deterministic, so any change in the kernel calls a backend makes — one
// SleepF more or less, a lock taken or not — moves these numbers.
func TestCrossApproachFingerprint(t *testing.T) {
	type print struct {
		elapsed vclock.Time
		ranks   [4]vclock.Time
		events  int64
	}
	want := map[string]print{
		"baseline/funneled":  {55220, [4]vclock.Time{55220, 54579, 54735, 54666}, 439},
		"baseline/multiple":  {81942, [4]vclock.Time{81942, 81386, 81356, 81731}, 666},
		"iprobe/funneled":    {56140, [4]vclock.Time{56140, 55499, 55655, 55586}, 483},
		"iprobe/multiple":    {85262, [4]vclock.Time{85262, 84706, 84676, 85051}, 726},
		"comm-self/funneled": {141077, [4]vclock.Time{140025, 139773, 137884, 141077}, 1223},
		"comm-self/multiple": {162869, [4]vclock.Time{161817, 161565, 159676, 162869}, 1431},
		"offload/funneled":   {42135, [4]vclock.Time{42135, 41825, 41728, 41681}, 998},
		"offload/multiple":   {44767, [4]vclock.Time{44737, 44575, 44767, 44283}, 1184},
		"core-spec/funneled": {47117, [4]vclock.Time{47117, 46459, 46632, 46563}, 571},
		"core-spec/multiple": {74308, [4]vclock.Time{74032, 74308, 73386, 73606}, 879},
	}
	levels := []struct {
		name  string
		level ThreadLevel
	}{{"funneled", Funneled}, {"multiple", Multiple}}
	for _, a := range []Approach{Baseline, Iprobe, CommSelf, Offload, CoreSpec} {
		for _, l := range levels {
			name := fmt.Sprintf("%s/%s", a, l.name)
			var k *vclock.Kernel
			res := Run(Config{Ranks: 4, Approach: a, ThreadLevel: l.level}, func(env *Env) {
				k = env.k
				fingerprintProgram(l.level)(env)
			})
			got := print{elapsed: res.Elapsed, events: k.Stats().Events}
			copy(got.ranks[:], res.RankElapsed)
			if got != want[name] {
				t.Errorf("%s: got %#v, want %#v", name, got, want[name])
			}
		}
	}
}

// TestTelemetryReportsKernelEvents pins the contract the host-time
// benchmark reads: after Run, a registry passed in Config reports
// sim_kernel_events_total equal to the run's kernel event count.
func TestTelemetryReportsKernelEvents(t *testing.T) {
	reg := telemetry.New()
	var k *vclock.Kernel
	Run(Config{Ranks: 4, Approach: Offload, Telemetry: reg}, func(env *Env) {
		k = env.k
		fingerprintProgram(Funneled)(env)
	})
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var vars map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &vars); err != nil {
		t.Fatalf("WriteJSON: %v\n%s", err, buf.Bytes())
	}
	if got, want := int64(vars["sim_kernel_events_total"]), k.Stats().Events; got != want || want == 0 {
		t.Errorf("sim_kernel_events_total = %d, kernel counted %d", got, want)
	}
}
