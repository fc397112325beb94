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
// phantom), Wait and Waitall, Iprobe(AnySource), and collectives. Under
// Multiple a two-thread team adds concurrent traffic.
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
		c.Wait(&rr)
		c.Waitall(&rs, &pr, &ps)

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

		c.Barrier()

		if level == Multiple {
			env.ParallelN(2, func(th *Thread) {
				tag := 100 + th.ID
				rr := th.Comm.Irecv(make([]byte, 64), left, tag)
				rs := th.Comm.Isend(out[:64], right, tag)
				th.Comm.Waitall(&rr, &rs)
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
		"baseline/funneled":  {46443, [4]vclock.Time{45958, 46083, 46443, 45598}, 173},
		"baseline/multiple":  {62251, [4]vclock.Time{61262, 61376, 62251, 61292}, 326},
		"iprobe/funneled":    {47363, [4]vclock.Time{46878, 47003, 47363, 46518}, 217},
		"iprobe/multiple":    {65571, [4]vclock.Time{64582, 64696, 65571, 64612}, 386},
		"comm-self/funneled": {81403, [4]vclock.Time{77915, 81403, 80144, 78967}, 597},
		"comm-self/multiple": {97985, [4]vclock.Time{94497, 97985, 96726, 95549}, 760},
		"offload/funneled":   {31591, [4]vclock.Time{31136, 31231, 31591, 30776}, 387},
		"offload/multiple":   {34193, [4]vclock.Time{33738, 33663, 34193, 34031}, 569},
		"core-spec/funneled": {38340, [4]vclock.Time{37855, 37980, 38340, 37495}, 275},
		"core-spec/multiple": {54123, [4]vclock.Time{53096, 53273, 54123, 53149}, 478},
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
