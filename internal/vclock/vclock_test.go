package vclock

import (
	"fmt"
	"testing"
)

func TestSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Go("a", func(tk *Task) {
		tk.Sleep(100)
		tk.Sleep(250)
		end = tk.Now()
	})
	final := k.Run()
	if end != 350 || final != 350 {
		t.Fatalf("got end=%d final=%d, want 350", end, final)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	k := NewKernel()
	k.Go("a", func(tk *Task) {
		tk.Sleep(0)
		tk.Sleep(-5)
		if tk.Now() != 0 {
			t.Errorf("time moved: %d", tk.Now())
		}
	})
	k.Run()
}

func TestSleepFRounds(t *testing.T) {
	k := NewKernel()
	k.Go("a", func(tk *Task) {
		tk.SleepF(10.6)
		if tk.Now() != 11 {
			t.Errorf("got %d, want 11", tk.Now())
		}
	})
	k.Run()
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			k.Go(fmt.Sprintf("t%d", i), func(tk *Task) {
				for j := 0; j < 3; j++ {
					tk.Sleep(Time(10 * (i + 1)))
					log = append(log, fmt.Sprintf("t%d@%d", i, tk.Now()))
				}
			})
		}
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("want 12 entries, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Ties at equal times must resolve by spawn order.
	if a[0] != "t0@10" || a[1] != "t1@20" || a[2] != "t0@20" {
		t.Fatalf("unexpected order: %v", a[:3])
	}
}

func TestEventBroadcastWakesAllInOrder(t *testing.T) {
	k := NewKernel()
	ev := NewEvent("ready")
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		k.Go(fmt.Sprintf("w%d", i), func(tk *Task) {
			tk.Wait(ev)
			order = append(order, fmt.Sprintf("w%d@%d", i, tk.Now()))
		})
	}
	k.Go("signaller", func(tk *Task) {
		tk.Sleep(500)
		ev.Broadcast(k)
	})
	k.Run()
	want := []string{"w0@500", "w1@500", "w2@500"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
}

func TestEventSignalWakesOne(t *testing.T) {
	k := NewKernel()
	ev := NewEvent("one")
	woken := 0
	for i := 0; i < 2; i++ {
		k.GoDaemon("w", func(tk *Task) {
			tk.Wait(ev)
			woken++
		})
	}
	k.Go("s", func(tk *Task) {
		tk.Sleep(10)
		ev.Signal(k)
		tk.Sleep(10)
	})
	k.Run()
	if woken != 1 {
		t.Fatalf("woken=%d, want 1", woken)
	}
	if n := len(ev.waiters); n != 1 {
		t.Fatalf("waiters=%d, want 1", n)
	}
}

func TestResourceMutualExclusionAndFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource("lock", 1)
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		k.Go(fmt.Sprintf("t%d", i), func(tk *Task) {
			tk.Sleep(Time(i)) // arrive in order t0,t1,t2
			tk.Acquire(r)
			order = append(order, fmt.Sprintf("t%d@%d", i, tk.Now()))
			tk.Sleep(100)
			tk.Release(r)
		})
	}
	k.Run()
	want := []string{"t0@0", "t1@100", "t2@200"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v want %v", order, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	k := NewKernel()
	r := NewResource("duo", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		k.Go("t", func(tk *Task) {
			tk.Acquire(r)
			tk.Sleep(100)
			tk.Release(r)
			done = append(done, tk.Now())
		})
	}
	k.Run()
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("got %v want %v", done, want)
		}
	}
}

func TestDaemonDoesNotKeepKernelAlive(t *testing.T) {
	k := NewKernel()
	polls := 0
	k.GoDaemon("poller", func(tk *Task) {
		for {
			tk.Sleep(10)
			polls++
		}
	})
	k.Go("main", func(tk *Task) { tk.Sleep(105) })
	end := k.Run()
	if end != 105 {
		t.Fatalf("end=%d, want 105", end)
	}
	if polls < 10 {
		t.Fatalf("daemon ran %d polls, want >= 10", polls)
	}
}

func TestSpawnFromRunningTask(t *testing.T) {
	k := NewKernel()
	var childTime Time
	k.Go("parent", func(tk *Task) {
		tk.Sleep(42)
		k.Go("child", func(c *Task) {
			c.Sleep(8)
			childTime = c.Now()
		})
		tk.Sleep(1)
	})
	k.Run()
	if childTime != 50 {
		t.Fatalf("child finished at %d, want 50", childTime)
	}
}

func TestShutdownKillsBlockedDaemons(t *testing.T) {
	// Daemons blocked on events must be torn down without hanging Run.
	k := NewKernel()
	ev := NewEvent("never")
	for i := 0; i < 5; i++ {
		k.GoDaemon("d", func(tk *Task) { tk.Wait(ev) })
	}
	k.Go("m", func(tk *Task) { tk.Sleep(1) })
	if end := k.Run(); end != 1 {
		t.Fatalf("end=%d", end)
	}
}

func TestManyTasksScale(t *testing.T) {
	k := NewKernel()
	n := 2000
	sum := 0
	for i := 0; i < n; i++ {
		k.Go("t", func(tk *Task) {
			tk.Sleep(7)
			sum++
		})
	}
	k.Run()
	if sum != n {
		t.Fatalf("sum=%d, want %d", sum, n)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := NewKernel()
	r := NewResource("x", 1)
	k.Go("a", func(tk *Task) { tk.Release(r) })
	k.Run()
}

// One task sleeping: every wake is the sleeper's own, so no goroutine switch.
func BenchmarkSelfResume(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Go("spinner", func(tk *Task) {
		for i := 0; i < b.N; i++ {
			tk.Sleep(1)
		}
	})
	b.ResetTimer()
	k.Run()
}

// Two tasks alternating: every event is a task switch, one goroutine handoff.
func BenchmarkTwoTaskPingPong(b *testing.B) {
	benchSleepers(b, 2)
}

// 1024 sleepers: the heap depth of the 256-node Dslash run.
func BenchmarkManyTasks1024(b *testing.B) {
	benchSleepers(b, 1024)
}

// benchSleepers times b.N Sleep(1) events spread round-robin over n tasks.
func benchSleepers(b *testing.B, n int) {
	b.ReportAllocs()
	k := NewKernel()
	for i := 0; i < n; i++ {
		sleeps := b.N / n
		if i < b.N%n {
			sleeps++
		}
		k.Go("sleeper", func(tk *Task) {
			for ; sleeps > 0; sleeps-- {
				tk.Sleep(1)
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// Callbacks only: heap push and pop, no task switch.
func BenchmarkAfter(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	left := b.N
	var tick func()
	tick = func() {
		if left--; left > 0 {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	k.Go("anchor", func(tk *Task) { tk.Sleep(Time(b.N) + 1) })
	b.ResetTimer()
	k.Run()
}

func TestAfterCallbacks(t *testing.T) {
	k := NewKernel()
	var fired []Time
	ev := NewEvent("pkt")
	k.Go("waiter", func(tk *Task) {
		k.After(30, func() {
			fired = append(fired, k.Now())
			ev.Broadcast(k)
		})
		k.AfterF(9.7, func() { fired = append(fired, k.Now()) })
		tk.Wait(ev)
		if tk.Now() != 30 {
			t.Errorf("woke at %d, want 30", tk.Now())
		}
	})
	k.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 30 {
		t.Fatalf("fired=%v", fired)
	}
}

func TestAfterDoesNotKeepAlive(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Go("m", func(tk *Task) {
		k.After(1000, func() { fired = true })
		tk.Sleep(5)
	})
	if end := k.Run(); end != 5 {
		t.Fatalf("end=%d", end)
	}
	if fired {
		t.Fatal("orphan callback fired")
	}
}

func TestAfterChain(t *testing.T) {
	k := NewKernel()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.After(10, chain)
		}
	}
	k.Go("m", func(tk *Task) {
		k.After(10, chain)
		tk.Sleep(100)
	})
	k.Run()
	if count != 5 {
		t.Fatalf("count=%d", count)
	}
}
