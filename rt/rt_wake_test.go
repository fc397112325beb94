package rt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpioffload/internal/transport"
)

// The completion path has no timer behind it: a blocked Wait parks on its
// slot's wake channel and only a completion (or, in Direct mode, a
// delivery) wakes it. A lost wakeup is therefore a hang, not a 1 ms stall,
// and these tests turn a hang into a failure with a deadline.

// finishWithin fails the test if run does not return within d. A hung run
// is left blocked: the process is failing anyway.
func finishWithin(t *testing.T, d time.Duration, what string, run func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 256<<10)
		t.Fatalf("%s did not finish within %v: a wakeup was lost\n%s", what, d, buf[:runtime.Stack(buf, true)])
	}
}

// parkedOn spins until slot h of r has a parked waiter.
func parkedOn(r *Rank, h Handle) {
	for !r.slots[h].parked.Load() {
		runtime.Gosched()
	}
}

// TestWakeStressPingPong: two thread pairs ping-pong over Loopback with no
// watchdog, under GOMAXPROCS 1 and 2, in both modes. The round trips
// park and wake waiters on both ranks over and over; one lost wakeup
// blocks a pair forever.
func TestWakeStressPingPong(t *testing.T) {
	iters := 100_000
	if raceBuild {
		iters = 2_000
	}
	for _, procs := range []int{1, 2} {
		for _, m := range modes() {
			t.Run(fmt.Sprintf("%s/procs=%d", m, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := NewCluster(2, m)
				defer c.Close()
				finishWithin(t, time.Minute, "ping-pong", func() {
					var wg sync.WaitGroup
					for th := 0; th < 2; th++ {
						wg.Add(2)
						go func() {
							defer wg.Done()
							me := c.Rank(0).RegisterThread()
							out, in := []byte{byte(th)}, make([]byte, 1)
							for i := 0; i < iters; i++ {
								me.Send(out, 1, th)
								if me.Recv(in, 1, th) != 1 || in[0] != byte(th) {
									t.Errorf("thread %d iter %d: echo %v", th, i, in)
									return
								}
							}
						}()
						go func() {
							defer wg.Done()
							me := c.Rank(1).RegisterThread()
							in := make([]byte, 1)
							for i := 0; i < iters; i++ {
								n := me.Recv(in, 0, th)
								me.Send(in[:n], 0, th)
							}
						}()
					}
					wg.Wait()
				})
			})
		}
	}
}

// TestWakeAgentIdlePolls: the idle agent yields idleSpin times and then
// parks, so a closed-loop 8 B ping-pong costs each message a few agent
// polls, not the ~60 a 64-yield spin burns. It runs over Unix sockets
// because that is where the spin costs: the socket reader waits on
// netpoll, which a Gosched spinner delays. Over Loopback the sender's own
// goroutine delivers, and the count stays low whatever the budget.
func TestWakeAgentIdlePolls(t *testing.T) {
	iters := 20_000
	if raceBuild {
		iters = 2_000
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			mesh, err := transport.NewSocketMesh("unix", 2)
			if err != nil {
				t.Fatalf("socket mesh: %v", err)
			}
			c := NewClusterOpts(2, Offload, Options{Transport: mesh})
			defer c.Close()
			finishWithin(t, time.Minute, "ping-pong", func() {
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					me := c.Rank(0).RegisterThread()
					out, in := make([]byte, 8), make([]byte, 8)
					for i := 0; i < iters; i++ {
						me.Send(out, 1, 0)
						if me.Recv(in, 1, 0) != len(out) {
							t.Errorf("iter %d: short echo", i)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					me := c.Rank(1).RegisterThread()
					in := make([]byte, 8)
					for i := 0; i < iters; i++ {
						me.Send(in[:me.Recv(in, 0, 0)], 0, 0)
					}
				}()
				wg.Wait()
			})
			polls := c.Rank(0).Polls.Load() + c.Rank(1).Polls.Load()
			perMsg := float64(polls) / float64(2*iters)
			t.Logf("%.1f agent polls per message over %d round trips", perMsg, iters)
			if perMsg > 16 {
				t.Errorf("%.1f agent polls per message, want <= 16: the idle agent spins instead of parking", perMsg)
			}
		})
	}
}

// TestExhaustedPoolPostWaits: with every request-pool slot held by a
// receive that nothing matches, one more post waits on back-pressure
// (getSlot pauses) and returns once a Wait frees a slot.
func TestExhaustedPoolPostWaits(t *testing.T) {
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			r0, r1 := c.Rank(0), c.Rank(1)
			held := make([]Handle, len(r0.slots))
			for i := range held {
				held[i] = r0.Irecv(nil, 1, i)
			}
			posted := make(chan Handle, 1)
			go func() { posted <- r0.Irecv(nil, 1, len(held)) }()
			select {
			case h := <-posted:
				t.Fatalf("a post returned slot %d with all %d slots live", h, len(held))
			case <-time.After(20 * time.Millisecond):
			}
			finishWithin(t, 10*time.Second, "the post after a freed slot", func() {
				r1.Send(nil, 0, 0)
				if n := r0.Wait(held[0]); n != 0 {
					t.Errorf("received %d bytes, want 0", n)
				}
				if h := <-posted; h != held[0] {
					t.Errorf("the waiting post got slot %d, want the freed slot %d", h, held[0])
				}
			})
		})
	}
}

// TestWakeParkCompleteAllocatesNothing: a receive that parks and is then
// completed allocates nothing in either mode — no timer, no channel per
// wait. A time.After or time.NewTimer back on the untimed completion path
// fails it.
func TestWakeParkCompleteAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates on its own account")
	}
	for _, m := range modes() {
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			r0, r1 := c.Rank(0), c.Rank(1)
			posted := make(chan Handle)
			stop := make(chan struct{})
			defer close(stop)
			go func() { // completes each receive only once its waiter parked
				for {
					select {
					case h := <-posted:
						parkedOn(r0, h)
						r1.Send(nil, 0, 3) // empty: no payload to copy
					case <-stop:
						return
					}
				}
			}()
			allocs := testing.AllocsPerRun(500, func() {
				h := r0.Irecv(nil, 1, 3)
				posted <- h
				if n := r0.Wait(h); n != 0 {
					t.Fatalf("received %d bytes, want 0", n)
				}
			})
			if allocs != 0 {
				t.Fatalf("park-then-complete allocates %.0f times per cycle, want 0", allocs)
			}
		})
	}
}

// TestWakeDirectTwoParkedWaiters: in Direct mode waiters a and b are
// parked on one rank, a first, when one message for b arrives. The
// delivery rings the bell, whose token the channel hands to the waiter
// parked longest, normally a; a must then drain the inbox and land b's
// message, which rings b's slot. So one delivery wakes both waiters, and
// a, its own receive still open, parks again until its message comes.
func TestWakeDirectTwoParkedWaiters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := NewCluster(2, Direct)
	defer c.Close()
	r0, r1 := c.Rank(0), c.Rank(1)
	for round := 0; round < 100; round++ {
		a, b := 1+round%2, 2-round%2 // tags, so each tag parks first in turn
		var got [3]chan int
		var hs [3]Handle
		for _, tag := range []int{a, b} {
			got[tag] = make(chan int, 1)
			hs[tag] = r0.Irecv(make([]byte, 1), 1, tag)
			go func() { got[tag] <- r0.Wait(hs[tag]) }()
			parkedOn(r0, hs[tag])
		}
		finishWithin(t, 10*time.Second, fmt.Sprintf("round %d: b's receive", round), func() {
			r1.Send([]byte{byte(b)}, 0, b)
			if n := <-got[b]; n != 1 {
				t.Errorf("round %d: b received %d bytes", round, n)
			}
		})
		parkedOn(r0, hs[a])
		select {
		case n := <-got[a]:
			t.Fatalf("round %d: a returned %d with no message of its own", round, n)
		default:
		}
		finishWithin(t, 10*time.Second, fmt.Sprintf("round %d: a's receive", round), func() {
			r1.Send([]byte{byte(a)}, 0, a)
			if n := <-got[a]; n != 1 {
				t.Errorf("round %d: a received %d bytes", round, n)
			}
		})
	}
}

// TestMatchQueuesAllocateNothing: matching a message allocates nothing
// beyond the eager copy of its payload, whether the message waits in the
// unexpected queue for its receive or the receive waits in the posted
// queue for its message. Direct mode makes both orders deterministic.
func TestMatchQueuesAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates on its own account")
	}
	c := NewCluster(2, Direct)
	defer c.Close()
	r0, r1 := c.Rank(0), c.Rank(1)
	msg, buf := make([]byte, 64), make([]byte, 64)
	cases := map[string]func(){
		"unexpected": func() {
			r1.Send(msg, 0, 5) // the eager copy: one allocation
			r0.directPoll()    // lands it in the unexpected queue
			if r0.Recv(buf, 1, 5) != len(msg) {
				t.Fatal("short receive")
			}
		},
		"posted": func() {
			h := r0.Irecv(buf, 1, 6) // queued as posted
			r1.Send(msg, 0, 6)
			if r0.Wait(h) != len(msg) {
				t.Fatal("short receive")
			}
		},
	}
	for name, cycle := range cases {
		if allocs := testing.AllocsPerRun(500, cycle); allocs != 1 {
			t.Errorf("%s: %.0f allocations per matched message, want 1 (its payload)", name, allocs)
		}
	}
}
