package mpi_test

import (
	"testing"

	"mpioffload/mpi"
	"mpioffload/sim"
)

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
