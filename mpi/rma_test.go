package mpi_test

import (
	"testing"

	"mpioffload/mpi"
	"mpioffload/sim"
)

func TestGetReadsRemoteData(t *testing.T) {
	sim.Run(sim.Config{Ranks: 2, Approach: sim.Offload}, func(env *sim.Env) {
		c := env.World
		local := make([]byte, 32)
		if env.Rank() == 1 {
			for i := range local {
				local[i] = byte(i + 1)
			}
		}
		win := c.WinCreate(local)
		var got []byte
		if env.Rank() == 0 {
			got = make([]byte, 8)
			win.Get(got, 1, 4)
		}
		win.Fence()
		if env.Rank() == 0 {
			for i := 0; i < 8; i++ {
				if got[i] != byte(4+i+1) {
					t.Errorf("Get[%d] = %d, want %d", i, got[i], 4+i+1)
				}
			}
		}
	})
}

func TestAccumulateSums(t *testing.T) {
	// Every rank accumulates into rank 0's window; after the fence the sum
	// of all contributions must be there.
	const n = 4
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			sim.Run(sim.Config{Ranks: n, Approach: a}, func(env *sim.Env) {
				c := env.World
				local := make([]float64, 4)
				win := c.WinCreate(mpi.Float64Bytes(local))
				contrib := []float64{float64(env.Rank() + 1), 1, 0, 0}
				win.Accumulate(mpi.Float64Bytes(contrib), 0, 0, mpi.SumFloat64)
				win.Fence()
				if env.Rank() == 0 {
					want := float64(n * (n + 1) / 2)
					if local[0] != want || local[1] != n {
						t.Errorf("accumulate got %v, want [%v %v 0 0]", local, want, float64(n))
					}
				}
			})
		})
	}
}

// TestAccumulateNeedsProgress demonstrates the RMA/asynchronous-progress
// connection (the Casper problem the paper cites): an accumulate into a
// computing target is applied mid-compute under offload but only at the
// fence under baseline.
func TestAccumulateNeedsProgress(t *testing.T) {
	applied := map[sim.Approach]int64{}
	for _, a := range []sim.Approach{sim.Baseline, sim.Offload} {
		var appliedAt int64
		sim.Run(sim.Config{Ranks: 2, Approach: a}, func(env *sim.Env) {
			c := env.World
			local := make([]float64, 1)
			win := c.WinCreate(mpi.Float64Bytes(local))
			if env.Rank() == 0 {
				v := []float64{42}
				win.Accumulate(mpi.Float64Bytes(v), 1, 0, mpi.SumFloat64)
				env.ComputeTime(5_000_000)
			} else {
				// Poll (without entering MPI) for the value to appear.
				deadline := env.Now() + 5_000_000
				for env.Now() < deadline {
					if local[0] == 42 && appliedAt == 0 {
						appliedAt = int64(env.Now())
					}
					env.ComputeTime(10_000)
				}
				if appliedAt == 0 {
					appliedAt = int64(env.Now())
				}
			}
			win.Fence()
		})
		applied[a] = appliedAt
	}
	if applied[sim.Offload] > 1_000_000 {
		t.Errorf("offload should apply the accumulate during compute (at %d ns)", applied[sim.Offload])
	}
	if applied[sim.Baseline] < 4_000_000 {
		t.Errorf("baseline should not apply until the fence (applied at %d ns)", applied[sim.Baseline])
	}
}

func TestProbeBlocksUntilMessage(t *testing.T) {
	sim.Run(sim.Config{Ranks: 2, Approach: sim.Offload}, func(env *sim.Env) {
		c := env.World
		if env.Rank() == 1 {
			ok, st := false, mpi.Status{}
			for !ok {
				ok, st = c.Iprobe(0, 5)
			}
			if st.Source != 0 || st.Count != 3 {
				t.Errorf("Probe status %+v", st)
			}
			buf := make([]byte, 3)
			c.Recv(buf, 0, 5)
			if string(buf) != "abc" {
				t.Errorf("after probe got %q", buf)
			}
		} else {
			env.ComputeTime(50_000)
			c.Send([]byte("abc"), 1, 5)
		}
	})
}
