//go:build !race

package rt

import (
	"testing"
	"time"
)

// overheadSink is package-level so the compiler cannot prove the cluster
// state constant and delete the atomic loads we are measuring.
var overheadSink *Cluster

// TestDisabledPathOverhead enforces the flight-recorder cost budget: with
// the recorder switched off, each gate must cost under 5 ns — one atomic
// load plus a branch, the same discipline internal/obs enforces for its
// hooks. Measured by hand (minimum over rounds discards scheduler noise);
// excluded under -race, whose instrumentation multiplies the cost of every
// atomic op.
func TestDisabledPathOverhead(t *testing.T) {
	// Direct mode spawns no offload goroutines, so nothing records an
	// agent-start event before the recorder is switched off.
	c := NewCluster(2, Direct)
	defer c.Close()
	c.SetFlightRecorder(false)
	overheadSink = c
	defer func() { overheadSink = nil }()
	r := c.Rank(0)

	gates := []struct {
		name string
		call func()
	}{
		// The submit-path gate in isend/irecv: the id computation and ring
		// write are skipped entirely when the load says off.
		{"flight-gate", func() {
			if overheadSink.flightOn.Load() {
				_ = r.opID(1)
			}
		}},
		// The cold-caller guard inside the hook itself.
		{"flight-hook", func() { r.flight(fkComplete, 0, 1, 7, 42) }},
	}
	const iters = 2_000_000
	for _, g := range gates {
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				g.call()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		nsPerOp := float64(best.Nanoseconds()) / iters
		t.Logf("disabled %s: %.2f ns/op", g.name, nsPerOp)
		if nsPerOp >= 5 {
			t.Errorf("disabled %s costs %.2f ns/op, want < 5", g.name, nsPerOp)
		}
	}
	if n := r.flightR.recorded(); n != 0 {
		t.Fatalf("disabled flight recorder wrote %d records", n)
	}
}
