package fabric

import (
	"testing"

	"mpioffload/internal/vclock"
)

func TestJitterSeedSelectsStream(t *testing.T) {
	run := func(seed int64) []vclock.Time {
		p := testProfile()
		p.LinkJitter = 0.3
		p.JitterSeed = seed
		k := vclock.NewKernel()
		f := New(k, p, 2)
		var got []arrival
		f.Bind(0, func(*Packet) {})
		collect(f, 1, &got, k)
		k.Go("s", func(tk *vclock.Task) {
			for i := 0; i < 10; i++ {
				f.Send(0, 1, 100, 1, nil)
				tk.Sleep(5000)
			}
			tk.Sleep(100_000)
		})
		k.Run()
		times := make([]vclock.Time, len(got))
		for i, a := range got {
			times[i] = a.at
		}
		return times
	}
	// Seed 0 is the historical default: identical to passing 0x5eed.
	def, explicit := run(0), run(0x5eed)
	for i := range def {
		if def[i] != explicit[i] {
			t.Fatalf("seed 0 diverged from historical default at %d", i)
		}
	}
	// A different seed must give a different (but internally deterministic)
	// noise sequence.
	other := run(12345)
	same := true
	for i := range def {
		if def[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct jitter seeds produced identical timelines")
	}
}

func TestCrash(t *testing.T) {
	f := New(vclock.NewKernel(), testProfile(), 3)
	if f.Crashed(2, 1e12) {
		t.Fatal("a fabric without a crash table reports a crash")
	}
	f.SetCrashes([]Crash{{Rank: 2, At: 1000}, {Rank: 2, At: 5000}})
	if f.Crashed(2, 999) {
		t.Fatal("crashed before At")
	}
	if !f.Crashed(2, 1000) || !f.Crashed(2, 1e12) {
		t.Fatal("not crashed at/after the earliest At")
	}
	if f.Crashed(1, 1e12) {
		t.Fatal("wrong rank crashed")
	}
}

func TestCrashSilencesBothDirections(t *testing.T) {
	k := vclock.NewKernel()
	f := New(k, testProfile(), 3)
	f.SetCrashes([]Crash{{Rank: 1, At: 10_000}})
	var got0, got1, got2 []arrival
	collect(f, 0, &got0, k)
	collect(f, 1, &got1, k)
	collect(f, 2, &got2, k)
	k.Go("s", func(tk *vclock.Task) {
		f.Send(0, 1, 100, 1, "before") // in flight pre-crash: delivered
		f.Send(1, 2, 100, 1, "from-1") // pre-crash send from rank 1: delivered
		tk.Sleep(20_000)               // now rank 1 is dead
		if !f.RankFailed(1) {
			t.Error("failure detector missed the crash")
		}
		if f.RankFailed(0) {
			t.Error("failure detector false positive")
		}
		f.Send(0, 1, 100, 1, "to-dead")   // silenced
		f.Send(1, 0, 100, 1, "from-dead") // silenced
		tk.Sleep(20_000)
	})
	k.Run()
	if len(got1) != 1 || len(got2) != 1 || len(got0) != 0 {
		t.Fatalf("arrivals got0=%d got1=%d got2=%d, want 0,1,1",
			len(got0), len(got1), len(got2))
	}
	if s := f.Stats(); s.CrashDrops != 2 {
		t.Fatalf("stats %+v, want 2 crash drops", s)
	}
}

func TestCrashMidFlightDropsAtDelivery(t *testing.T) {
	// The packet leaves a healthy sender but the destination dies before
	// the wire delivers it: the delivery-time check must discard it.
	k := vclock.NewKernel()
	f := New(k, testProfile(), 2)
	f.SetCrashes([]Crash{{Rank: 1, At: 500}})
	var got []arrival
	f.Bind(0, func(*Packet) {})
	collect(f, 1, &got, k)
	k.Go("s", func(tk *vclock.Task) {
		f.Send(0, 1, 100, 1, "doomed") // would arrive at 1100 > crash at 500
		tk.Sleep(10_000)
	})
	k.Run()
	if len(got) != 0 {
		t.Fatal("packet delivered to a rank that died mid-flight")
	}
	if s := f.Stats(); s.CrashDrops != 1 {
		t.Fatalf("stats %+v, want 1 crash drop", s)
	}
}

func TestFaultTimelineDeterministic(t *testing.T) {
	// A jittery wire with a mid-run crash replays tick for tick: the same
	// arrivals at the same times, the same packets silenced.
	run := func() ([]arrival, Stats) {
		p := testProfile()
		p.LinkJitter = 0.3
		k := vclock.NewKernel()
		f := New(k, p, 3)
		f.SetCrashes([]Crash{{Rank: 2, At: 300_000}})
		var got []arrival
		f.Bind(0, func(*Packet) {})
		collect(f, 1, &got, k)
		collect(f, 2, &got, k)
		k.Go("s", func(tk *vclock.Task) {
			for i := 0; i < 200; i++ {
				f.Send(0, 1+i%2, 64, 1, i)
				tk.Sleep(3000)
			}
			tk.Sleep(100_000)
		})
		k.Run()
		return got, f.Stats()
	}
	a1, s1 := run()
	a2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival counts diverged: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].at != a2[i].at || a1[i].pkt.Payload != a2[i].pkt.Payload {
			t.Fatalf("arrival %d diverged: %d %v vs %d %v", i, a1[i].at, a1[i].pkt.Payload, a2[i].at, a2[i].pkt.Payload)
		}
	}
	if s1.CrashDrops == 0 || len(a1)+int(s1.CrashDrops) != 200 {
		t.Fatalf("%d arrivals and %d crash drops, want 200 packets with some silenced", len(a1), s1.CrashDrops)
	}
}
