package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count returns to want.
// A killed task acknowledges shutdown a few instructions before its goroutine
// exits, so the count is polled, not read once.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: task goroutines leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// runPanics runs k and returns the value Run panicked with.
func runPanics(t *testing.T, k *Kernel) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatal("Run returned, want panic")
		}
	}()
	k.Run()
	return nil
}

// A panic in an After callback must end the simulation the way a task panic
// does: every task goroutine torn down, the original value re-raised by Run.
func TestCallbackPanic(t *testing.T) {
	bystanders := func(k *Kernel) {
		never := NewEvent("never")
		for i := 0; i < 3; i++ {
			k.GoDaemon("blocked", func(tk *Task) { tk.Wait(never) })
			k.Go("sleeper", func(tk *Task) { tk.Sleep(1000) })
		}
		k.Go("unstarted", func(tk *Task) {})
	}
	t.Run("before any task runs", func(t *testing.T) {
		before := runtime.NumGoroutine()
		k := NewKernel()
		k.After(0, func() { panic("boom") }) // lowest seq: fires on Run's goroutine
		bystanders(k)
		if r := runPanics(t, k); r != "boom" {
			t.Fatalf("Run panicked with %v, want boom", r)
		}
		waitGoroutines(t, before)
	})
	t.Run("while a task is yielding", func(t *testing.T) {
		before := runtime.NumGoroutine()
		k := NewKernel()
		bystanders(k)
		k.Go("yielder", func(tk *Task) {
			k.After(5, func() { panic("boom") })
			tk.Sleep(10) // the callback fires on this goroutine, inside Sleep
			t.Error("yielder resumed after the callback panicked")
		})
		if r := runPanics(t, k); r != "boom" {
			t.Fatalf("Run panicked with %v, want boom", r)
		}
		waitGoroutines(t, before)
	})
}

func TestDeadlockReportAndTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	ev, lock := NewEvent("never"), NewResource("lock", 1)
	k.Go("waiter", func(tk *Task) { tk.Wait(ev) })
	k.Go("holder", func(tk *Task) { tk.Acquire(lock); tk.Wait(ev) })
	k.Go("queued", func(tk *Task) { tk.Sleep(1); tk.Acquire(lock) })
	want := "vclock: deadlock: 3 task(s) blocked: [holder@wait:never queued@acquire:lock waiter@wait:never]"
	if r := runPanics(t, k); r != want {
		t.Fatalf("got  %v\nwant %v", r, want)
	}
	waitGoroutines(t, before)
}

// The steady-state kernel loop allocates nothing: not for a heap push/pop,
// not for a task switch, not for queueing on an event or a resource.
func TestZeroAllocsPerEvent(t *testing.T) {
	gate := func(name string, k *Kernel, op func(tk *Task)) {
		k.Go("measured", func(tk *Task) {
			if a := testing.AllocsPerRun(200, func() { op(tk) }); a != 0 {
				t.Errorf("%s: %v allocs/op, want 0", name, a)
			}
		})
		k.Run()
	}

	gate("Sleep, self-resume", NewKernel(), func(tk *Task) { tk.Sleep(1) })

	k := NewKernel()
	k.GoDaemon("other", func(tk *Task) {
		for {
			tk.Sleep(1)
		}
	})
	gate("Sleep, two tasks alternating", k, func(tk *Task) { tk.Sleep(1) })

	k = NewKernel()
	fired := 0
	cb := func() { fired++ }
	gate("After with a pre-built func", k, func(tk *Task) {
		k.After(1, cb)
		tk.Sleep(1)
	})
	if fired == 0 {
		t.Error("After gate: callback never fired")
	}

	k = NewKernel()
	ping, pong := NewEvent("ping"), NewEvent("pong")
	k.GoDaemon("echo", func(tk *Task) {
		for {
			tk.Wait(ping)
			pong.Signal(k)
		}
	})
	gate("Wait/Signal ping-pong", k, func(tk *Task) {
		tk.Sleep(0) // let echo reach its Wait first
		ping.Signal(k)
		tk.Wait(pong)
	})

	k = NewKernel()
	r := NewResource("lock", 1)
	for i := 0; i < 3; i++ {
		k.GoDaemon("contender", func(tk *Task) {
			for {
				tk.Acquire(r)
				tk.Sleep(1)
				tk.Release(r)
			}
		})
	}
	gate("Acquire/Release under contention", k, func(tk *Task) {
		tk.Acquire(r)
		tk.Sleep(1)
		tk.Release(r)
		if r.QueueLen() == 0 {
			t.Error("resource was not contended")
		}
	})
}

// A lone sleeping task never parks: its own wake comes off the heap on its
// own goroutine. Callbacks due before the wake — at an earlier time, or at the
// same time with a lower seq — must still fire first, each at its own Now().
func TestSelfResumeWithCallbacks(t *testing.T) {
	k := NewKernel()
	var log []string
	note := func(s string) func() { return func() { log = append(log, fmt.Sprintf("%s@%d", s, k.Now())) } }
	k.Go("lone", func(tk *Task) {
		k.After(5, note("tie-before")) // same time as the wake, lower seq
		k.After(3, note("early"))
		k.After(9, func() {
			note("late")()
			k.After(0, note("chained")) // scheduled from a callback, fires in the same Sleep
		})
		tk.Sleep(5)
		note("wake1")()
		k.After(5, note("tie-after")) // same time as wake2, lower seq than its push
		tk.Sleep(5)
		note("wake2")()
		k.After(0, note("orphan")) // nothing yields again: never fires
	})
	if end := k.Run(); end != 10 {
		t.Fatalf("end=%d, want 10", end)
	}
	want := []string{"early@3", "tie-before@5", "wake1@5", "late@9", "chained@9", "tie-after@10", "wake2@10"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("got  %v\nwant %v", log, want)
	}
}

func TestHeapOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := NewKernel()
	var ref []event
	check := func(n int) {
		sort.Slice(ref, func(i, j int) bool { return ref[i].before(&ref[j]) })
		for i := 0; i < n; i++ {
			got := k.pop()
			if got.at != ref[i].at || got.seq != ref[i].seq {
				t.Fatalf("pop %d: got (%d,%d), want (%d,%d)", i, got.at, got.seq, ref[i].at, ref[i].seq)
			}
		}
		ref = ref[n:]
	}
	for round := 0; round < 50; round++ {
		for i := rng.Intn(200); i >= 0; i-- {
			at := Time(rng.Intn(16)) // few distinct times: seq breaks most ties
			k.push(event{at: at})
			ref = append(ref, event{at: at, seq: k.seq})
		}
		check(rng.Intn(len(ref) + 1)) // partial drain, then push on top of what is left
	}
	check(len(ref))
	if len(k.events) != 0 {
		t.Fatalf("%d events left", len(k.events))
	}
}
