package fault

import "testing"

func TestLossy(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Lossy() {
		t.Fatal("nil plan must not be lossy")
	}
	if (&Plan{}).Lossy() {
		t.Fatal("zero plan must not be lossy")
	}
	if !(&Plan{DropRate: 0.01}).Lossy() || !(&Plan{DupRate: 0.01}).Lossy() {
		t.Fatal("drop or dup rate must make the plan lossy")
	}
	var nilInj *Injector
	if nilInj.Lossy() || nilInj.Crashed(0, 1e9) {
		t.Fatal("nil injector must report no faults")
	}
	if s := nilInj.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats %+v", s)
	}
}

func TestDrawDeterminism(t *testing.T) {
	p := &Plan{Seed: 42, DropRate: 0.1, DupRate: 0.05}
	a, b := NewInjector(p), NewInjector(p)
	for i := 0; i < 10_000; i++ {
		d1, u1 := a.DrawPacket()
		d2, u2 := b.DrawPacket()
		if d1 != d2 || u1 != u2 {
			t.Fatalf("draw %d diverged: (%v,%v) vs (%v,%v)", i, d1, u1, d2, u2)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	// Rates should land near their expectations over 10k draws.
	if sa.Dropped < 800 || sa.Dropped > 1200 {
		t.Fatalf("dropped %d, want ~1000", sa.Dropped)
	}
	if sa.Duplicated < 300 || sa.Duplicated > 600 {
		t.Fatalf("duplicated %d, want ~450", sa.Duplicated)
	}
}

func TestDropWinsOverDup(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, DropRate: 1, DupRate: 1})
	for i := 0; i < 100; i++ {
		drop, dup := in.DrawPacket()
		if !drop || dup {
			t.Fatal("with both rates 1, every packet drops and none duplicates")
		}
	}
}

func TestCrash(t *testing.T) {
	in := NewInjector(&Plan{Crashes: []Crash{{Rank: 2, At: 1000}}})
	if in.Crashed(2, 999) {
		t.Fatal("crashed before At")
	}
	if !in.Crashed(2, 1000) || !in.Crashed(2, 1e12) {
		t.Fatal("not crashed at/after At")
	}
	if in.Crashed(1, 1e12) {
		t.Fatal("wrong rank crashed")
	}
}

func TestStallWindows(t *testing.T) {
	in := NewInjector(&Plan{Stalls: []Stall{
		{Rank: 1, Start: 100, End: 200},
		{Rank: -1, Start: 500, End: 600},
	}})
	if _, stalled, _ := in.StallUntil(1, 50); stalled {
		t.Fatal("stalled before window")
	}
	until, stalled, blackout := in.StallUntil(1, 150)
	if !stalled || blackout || until != 200 {
		t.Fatalf("inside window: until=%v stalled=%v blackout=%v", until, stalled, blackout)
	}
	if _, stalled, _ := in.StallUntil(1, 200); stalled {
		t.Fatal("stalled at window close")
	}
	// The rank -1 window applies to everyone.
	for r := 0; r < 3; r++ {
		if until, stalled, _ := in.StallUntil(r, 550); !stalled || until != 600 {
			t.Fatalf("rank %d missed the all-ranks window", r)
		}
	}
}

func TestBlackout(t *testing.T) {
	in := NewInjector(&Plan{Stalls: []Stall{{Rank: 0, Start: 1000}}})
	if !(Stall{Rank: 0, Start: 1000}).Blackout() {
		t.Fatal("End <= Start must mean blackout")
	}
	if _, _, blackout := in.StallUntil(0, 999); blackout {
		t.Fatal("blacked out before Start")
	}
	if _, _, blackout := in.StallUntil(0, 1000); !blackout {
		t.Fatal("not blacked out after Start")
	}
	if _, _, blackout := in.StallUntil(0, 1e15); !blackout {
		t.Fatal("blackout must be permanent")
	}
}
