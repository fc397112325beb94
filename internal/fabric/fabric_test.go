package fabric

import (
	"reflect"
	"testing"

	"mpioffload/internal/model"
	"mpioffload/internal/vclock"
)

func testProfile() *model.Profile {
	p := model.Endeavor()
	p.LinkLatency = 1000
	p.LinkBW = 1.0 // 1 byte/ns makes arithmetic exact
	p.ShmLatency = 100
	p.ShmBW = 10.0
	p.RanksPerNode = 1 // all ranks on distinct nodes unless overridden
	return p
}

type arrival struct {
	at  vclock.Time
	pkt *Packet
}

func collect(f *Fabric, rank int, out *[]arrival, k *vclock.Kernel) {
	f.Bind(rank, func(p *Packet) { *out = append(*out, arrival{k.Now(), p}) })
}

func TestPointToPointTiming(t *testing.T) {
	k := vclock.NewKernel()
	f := New(k, testProfile(), 2)
	var got []arrival
	collect(f, 1, &got, k)
	f.Bind(0, func(*Packet) {})
	k.Go("sender", func(tk *vclock.Task) {
		f.Send(0, 1, 500, 1, "hello")
		tk.Sleep(5000)
	})
	k.Run()
	if len(got) != 1 {
		t.Fatalf("arrivals: %d", len(got))
	}
	// 500 B at 1 B/ns + 1000 ns latency = 1500 ns.
	if got[0].at != 1500 {
		t.Fatalf("arrived at %d, want 1500", got[0].at)
	}
	if got[0].pkt.Payload.(string) != "hello" {
		t.Fatal("payload corrupted")
	}
}

func TestInjectionSerialization(t *testing.T) {
	k := vclock.NewKernel()
	f := New(k, testProfile(), 3)
	var got1, got2 []arrival
	f.Bind(0, func(*Packet) {})
	collect(f, 1, &got1, k)
	collect(f, 2, &got2, k)
	k.Go("sender", func(tk *vclock.Task) {
		f.Send(0, 1, 1000, 1, nil) // tx busy [0,1000]
		f.Send(0, 2, 1000, 1, nil) // tx busy [1000,2000]
		tk.Sleep(10000)
	})
	k.Run()
	if got1[0].at != 2000 {
		t.Fatalf("first msg at %d, want 2000", got1[0].at)
	}
	if got2[0].at != 3000 {
		t.Fatalf("second msg at %d, want 3000 (injection serialized)", got2[0].at)
	}
}

func TestIncastEjectionSerialization(t *testing.T) {
	k := vclock.NewKernel()
	f := New(k, testProfile(), 3)
	var got []arrival
	f.Bind(1, func(*Packet) {})
	f.Bind(2, func(*Packet) {})
	collect(f, 0, &got, k)
	k.Go("s", func(tk *vclock.Task) {
		f.Send(1, 0, 1000, 1, nil)
		f.Send(2, 0, 1000, 1, nil)
		tk.Sleep(10000)
	})
	k.Run()
	if len(got) != 2 {
		t.Fatalf("arrivals %d", len(got))
	}
	// Both injected at t=0 from different NICs; wire-ready at 2000 each,
	// but rank 0's ejection port serializes: second completes at 3000.
	if got[0].at != 2000 || got[1].at != 3000 {
		t.Fatalf("arrivals at %d,%d want 2000,3000", got[0].at, got[1].at)
	}
}

func TestBandwidthDivisorSlowsTransfer(t *testing.T) {
	k := vclock.NewKernel()
	f := New(k, testProfile(), 2)
	var got []arrival
	f.Bind(0, func(*Packet) {})
	collect(f, 1, &got, k)
	k.Go("s", func(tk *vclock.Task) {
		f.Send(0, 1, 1000, 4, nil) // quarter bandwidth
		tk.Sleep(20000)
	})
	k.Run()
	if got[0].at != 5000 { // 1000B at 0.25 B/ns + 1000 latency
		t.Fatalf("arrived at %d, want 5000", got[0].at)
	}
}

func TestIntraNodeUsesSharedMemory(t *testing.T) {
	p := testProfile()
	p.RanksPerNode = 2
	k := vclock.NewKernel()
	f := New(k, p, 4)
	if f.Nodes() != 2 {
		t.Fatalf("nodes=%d", f.Nodes())
	}
	if f.nodeOf[0] != 0 || f.nodeOf[1] != 0 || f.nodeOf[2] != 1 {
		t.Fatal("bad node mapping")
	}
	var got []arrival
	collect(f, 1, &got, k)
	f.Bind(0, func(*Packet) {})
	f.Bind(2, func(*Packet) {})
	f.Bind(3, func(*Packet) {})
	k.Go("s", func(tk *vclock.Task) {
		f.Send(0, 1, 1000, 1, nil) // same node: 100 + 1000/10 = 200
		tk.Sleep(5000)
	})
	k.Run()
	if got[0].at != 200 {
		t.Fatalf("intra-node arrival at %d, want 200", got[0].at)
	}
}

func TestStatsAccumulate(t *testing.T) {
	k := vclock.NewKernel()
	f := New(k, testProfile(), 2)
	f.Bind(0, func(*Packet) {})
	f.Bind(1, func(*Packet) {})
	k.Go("s", func(tk *vclock.Task) {
		f.Send(0, 1, 100, 1, nil)
		f.Send(1, 0, 200, 1, nil)
		tk.Sleep(5000)
	})
	k.Run()
	s := f.Stats()
	if s.Msgs != 2 || s.Bytes != 300 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDoubleBindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := vclock.NewKernel()
	f := New(k, testProfile(), 1)
	f.Bind(0, func(*Packet) {})
	f.Bind(0, func(*Packet) {})
}

func TestJitterPreservesPerPairOrder(t *testing.T) {
	p := testProfile()
	p.LinkJitter = 0.5
	k := vclock.NewKernel()
	f := New(k, p, 2)
	var got []arrival
	f.Bind(0, func(*Packet) {})
	collect(f, 1, &got, k)
	k.Go("s", func(tk *vclock.Task) {
		for i := 0; i < 50; i++ {
			f.Send(0, 1, 10, 1, i)
		}
		tk.Sleep(1_000_000)
	})
	k.Run()
	if len(got) != 50 {
		t.Fatalf("arrivals %d", len(got))
	}
	for i, a := range got {
		if a.pkt.Payload.(int) != i {
			t.Fatalf("message %d overtaken under jitter (got %v)", i, a.pkt.Payload)
		}
		if i > 0 && a.at <= got[i-1].at {
			t.Fatalf("non-monotonic delivery at %d", i)
		}
	}
}

func TestJitterIsDeterministic(t *testing.T) {
	run := func() []vclock.Time {
		p := testProfile()
		p.LinkJitter = 0.3
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
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestShmBusySerialization is the dedicated regression for the intra-node
// shared-memory busy channel: concurrent sends converging on one
// destination must serialize deterministically in virtual time, each
// arrival exactly one transfer time after the previous one.
func TestShmBusySerialization(t *testing.T) {
	p := testProfile()
	p.RanksPerNode = 3 // ranks 0,1,2 share node 0
	k := vclock.NewKernel()
	f := New(k, p, 3)
	var got []arrival
	f.Bind(0, func(*Packet) {})
	f.Bind(1, func(*Packet) {})
	collect(f, 2, &got, k)
	// Two distinct senders post at the same virtual instant.
	k.Go("s0", func(tk *vclock.Task) {
		f.Send(0, 2, 1000, 1, "a")
		tk.Sleep(10_000)
	})
	k.Go("s1", func(tk *vclock.Task) {
		f.Send(1, 2, 1000, 1, "b")
		tk.Sleep(10_000)
	})
	k.Run()
	if len(got) != 2 {
		t.Fatalf("arrivals: %d", len(got))
	}
	// First: max(0+100, 0) + 1000/10 = 200. Second queues on the busy
	// channel: max(0+100, 200) + 100 = 300.
	if got[0].at != 200 || got[1].at != 300 {
		t.Fatalf("arrivals at %d,%d want 200,300 (shm channel must serialize)",
			got[0].at, got[1].at)
	}
	if got[0].pkt.Payload.(string) != "a" || got[1].pkt.Payload.(string) != "b" {
		t.Fatal("shm serialization reordered same-destination sends")
	}
}

// TestShmBusySerializationDeterminism re-runs the converging-senders
// scenario and demands identical virtual timelines.
func TestShmBusySerializationDeterminism(t *testing.T) {
	run := func() []vclock.Time {
		p := testProfile()
		p.RanksPerNode = 4
		k := vclock.NewKernel()
		f := New(k, p, 4)
		var got []arrival
		for r := 0; r < 3; r++ {
			f.Bind(r, func(*Packet) {})
		}
		collect(f, 3, &got, k)
		for r := 0; r < 3; r++ {
			r := r
			k.Go("s", func(tk *vclock.Task) {
				for i := 0; i < 5; i++ {
					f.Send(r, 3, 500, 1, nil)
					tk.Sleep(50)
				}
				tk.Sleep(10_000)
			})
		}
		k.Run()
		times := make([]vclock.Time, len(got))
		for i, a := range got {
			times[i] = a.at
		}
		return times
	}
	a, b := run(), run()
	if len(a) != 15 {
		t.Fatalf("arrivals: %d", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shm serialization nondeterministic:\n%v\n%v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("arrival %d not strictly after %d (%d <= %d)", i, i-1, a[i], a[i-1])
		}
	}
}
