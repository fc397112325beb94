package model

import "testing"

func TestProfilesWellFormed(t *testing.T) {
	for _, p := range []*Profile{Endeavor(), EndeavorPhi(), Edison()} {
		if p.Name == "" {
			t.Error("profile missing name")
		}
		if p.EagerThreshold != 128<<10 {
			t.Errorf("%s: eager threshold %d, want 128 KiB (paper §4.1)", p.Name, p.EagerThreshold)
		}
		for name, v := range map[string]float64{
			"CallOverhead": p.CallOverhead, "MemcpyBW": p.MemcpyBW,
			"EnqueueCost": p.EnqueueCost, "LinkLatency": p.LinkLatency,
			"LinkBW": p.LinkBW, "ThreadFlops": p.ThreadFlops,
			"ShmBW": p.ShmBW, "MTLockAcquire": p.MTLockAcquire,
		} {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", p.Name, name, v)
			}
		}
		if p.RanksPerNode < 1 || p.ThreadsPerRank < 2 {
			t.Errorf("%s: bad topology %d/%d", p.Name, p.RanksPerNode, p.ThreadsPerRank)
		}
	}
}

func TestPhiIsSlowerThanXeon(t *testing.T) {
	x, phi := Endeavor(), EndeavorPhi()
	if phi.CallOverhead <= x.CallOverhead {
		t.Error("Phi call overhead should exceed Xeon")
	}
	if phi.EnqueueCost <= x.EnqueueCost {
		t.Error("Phi enqueue cost should exceed Xeon (paper: 1.7 µs vs 0.3 µs overhead)")
	}
	if phi.ThreadFlops >= x.ThreadFlops {
		t.Error("Phi per-thread flops should be lower")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"endeavor", "xeon", "phi", "edison", "cray", "xeonphi"} {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	if _, err := ByName("bluegene"); err == nil {
		t.Error("expected error for unknown profile")
	}
}

func TestHelpers(t *testing.T) {
	p := Endeavor()
	if got := p.CopyTime(8000); got != 1000 {
		t.Errorf("CopyTime = %v, want 1000", got)
	}
	if !p.Eager(128 << 10) {
		t.Error("128 KiB should still be eager")
	}
	if p.Eager(128<<10 + 1) {
		t.Error("128 KiB + 1 should be rendezvous")
	}
}

func TestCongestionFactorMonotone(t *testing.T) {
	p := Endeavor()
	if p.CongestionFactor(1) != 1 || p.CongestionFactor(16) != 1 {
		t.Error("small clusters should be uncongested")
	}
	prev := 1.0
	for _, n := range []int{32, 64, 128, 256} {
		c := p.CongestionFactor(n)
		if c <= prev {
			t.Errorf("congestion not increasing at %d nodes: %v <= %v", n, c, prev)
		}
		prev = c
	}
	if p.CongestionFactor(0) != 1 {
		t.Error("0 nodes should be factor 1")
	}
}

func TestEdisonHasCoreSpec(t *testing.T) {
	if !Edison().CoreSpec {
		t.Error("Edison must expose core specialization (Fig 9b)")
	}
	if Endeavor().CoreSpec {
		t.Error("Endeavor has no core specialization")
	}
}
