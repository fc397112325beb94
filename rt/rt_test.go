package rt

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func modes() []Mode { return []Mode{Direct, Offload} }

func TestPingPongBothModes(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			var wg sync.WaitGroup
			msg := []byte("real-time ping")
			wg.Add(2)
			go func() {
				defer wg.Done()
				r := c.Rank(0)
				r.Send(msg, 1, 7)
				buf := make([]byte, 64)
				n := r.Recv(buf, 1, 8)
				if !bytes.Equal(buf[:n], msg) {
					t.Errorf("echo corrupted: %q", buf[:n])
				}
			}()
			go func() {
				defer wg.Done()
				r := c.Rank(1)
				buf := make([]byte, 64)
				n := r.Recv(buf, 0, 7)
				r.Send(buf[:n], 0, 8)
			}()
			wg.Wait()
		})
	}
}

func TestNonOvertakingPerPair(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			const k = 200
			done := make(chan bool, 2)
			go func() {
				r := c.Rank(0)
				for i := 0; i < k; i++ {
					r.Send([]byte{byte(i)}, 1, 3)
				}
				done <- true
			}()
			go func() {
				r := c.Rank(1)
				buf := make([]byte, 1)
				for i := 0; i < k; i++ {
					r.Recv(buf, 0, 3)
					if buf[0] != byte(i) {
						t.Errorf("message %d overtaken: got %d", i, buf[0])
						done <- false
						return
					}
				}
				done <- true
			}()
			if !<-done || !<-done {
				t.FailNow()
			}
		})
	}
}

func TestConcurrentThreadPairs(t *testing.T) {
	// The THREAD_MULTIPLE scenario: several goroutines per rank
	// communicate simultaneously on distinct tags.
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			c := NewCluster(2, m)
			defer c.Close()
			const threads = 6
			const iters = 50
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				th := th
				wg.Add(2)
				go func() { // rank 0 side
					defer wg.Done()
					r := c.Rank(0)
					buf := []byte{byte(th)}
					in := make([]byte, 1)
					for i := 0; i < iters; i++ {
						r.Send(buf, 1, 100+th)
						r.Recv(in, 1, 200+th)
						if in[0] != byte(th+1) {
							t.Errorf("thread %d got %d", th, in[0])
							return
						}
					}
				}()
				go func() { // rank 1 side
					defer wg.Done()
					r := c.Rank(1)
					in := make([]byte, 1)
					out := []byte{byte(th + 1)}
					for i := 0; i < iters; i++ {
						r.Recv(in, 0, 100+th)
						r.Send(out, 0, 200+th)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestUnexpectedMessagesBothModes(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			c.Rank(0).Send([]byte("early"), 1, 9)
			time.Sleep(time.Millisecond) // let it arrive unexpected
			buf := make([]byte, 8)
			n := c.Rank(1).Recv(buf, 0, 9)
			if string(buf[:n]) != "early" {
				t.Fatalf("got %q", buf[:n])
			}
		})
	}
}

func TestManyRanksRing(t *testing.T) {
	const n = 8
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(n, m)
			defer c.Close()
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := c.Rank(i)
					token := []byte{byte(i)}
					buf := make([]byte, 1)
					r.Send(token, (i+1)%n, 0)
					r.Recv(buf, (i-1+n)%n, 0)
					if buf[0] != byte((i-1+n)%n) {
						t.Errorf("rank %d got token %d", i, buf[0])
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkPostTime is the real-hardware analogue of Fig 4: the wall-clock
// cost of issuing a nonblocking send, per mode. Under offload it is one
// lock-free enqueue; under direct it is a mutex acquisition plus the
// transport work.
func BenchmarkPostTime(b *testing.B) {
	for _, m := range modes() {
		b.Run(m.String(), func(b *testing.B) {
			c := NewCluster(2, m)
			defer c.Close()
			r := c.Rank(0)
			sink := c.Rank(1)
			go func() { // keep draining so queues never fill
				buf := make([]byte, 64)
				for !sink.stop.Load() {
					h := sink.Irecv(buf, 0, 0)
					sink.Wait(h)
				}
			}()
			payload := make([]byte, 64)
			hs := make([]Handle, 0, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hs = append(hs, r.Isend(payload, 1, 0))
				if len(hs) == cap(hs) {
					b.StopTimer()
					for _, h := range hs {
						r.Wait(h)
					}
					hs = hs[:0]
					b.StartTimer()
				}
			}
			b.StopTimer()
			for _, h := range hs {
				r.Wait(h)
			}
		})
	}
}

// BenchmarkMTLatency is the real-hardware analogue of Fig 6: concurrent
// goroutine pairs ping-ponging; direct mode serializes on the rank mutex.
func BenchmarkMTLatency(b *testing.B) {
	for _, m := range modes() {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/threads=%d", m, threads), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				c := NewCluster(2, m)
				defer c.Close()
				var wg sync.WaitGroup
				iters := b.N/threads + 1
				b.ResetTimer()
				for th := 0; th < threads; th++ {
					th := th
					wg.Add(2)
					go func() {
						defer wg.Done()
						r := c.Rank(0)
						buf := make([]byte, 8)
						for i := 0; i < iters; i++ {
							r.Send(buf, 1, th)
							r.Recv(buf, 1, 1000+th)
						}
					}()
					go func() {
						defer wg.Done()
						r := c.Rank(1)
						buf := make([]byte, 8)
						for i := 0; i < iters; i++ {
							r.Recv(buf, 0, th)
							r.Send(buf, 0, 1000+th)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

func TestWaitErrWatchdog(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			c.SetWatchdog(50 * time.Millisecond)
			r := c.Rank(0)

			// A receive nobody will ever satisfy must time out, not spin.
			start := time.Now()
			h := r.Irecv(make([]byte, 16), 1, 99)
			n, err := r.WaitErr(h)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("WaitErr = (%d, %v), want ErrTimeout", n, err)
			}
			if el := time.Since(start); el < 50*time.Millisecond || el > 5*time.Second {
				t.Fatalf("timed out after %v, want ~50ms", el)
			}
			if got := r.WatchdogTrips.Load(); got != 1 {
				t.Fatalf("WatchdogTrips = %d, want 1", got)
			}

			// A satisfiable receive under the same deadline completes cleanly.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Rank(1).Send([]byte("alive"), 0, 5)
			}()
			buf := make([]byte, 16)
			h2 := r.Irecv(buf, 1, 5)
			n, err = r.WaitErr(h2)
			if err != nil || n != 5 || !bytes.Equal(buf[:n], []byte("alive")) {
				t.Fatalf("WaitErr = (%d, %v) buf %q, want clean 5-byte receive", n, err, buf[:n])
			}
			wg.Wait()
			if got := r.WatchdogTrips.Load(); got != 1 {
				t.Fatalf("WatchdogTrips = %d after clean wait, want still 1", got)
			}
		})
	}
}

func TestKillRankSurfacesErrRankFailed(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(3, m)
			defer c.Close()
			c.SetWatchdog(50 * time.Millisecond)
			r := c.Rank(0)

			c.KillRank(2)
			if !c.Failed(2) {
				t.Fatal("Failed(2) = false after KillRank")
			}

			// A receive from the dead rank reports ErrRankFailed, not a
			// generic timeout.
			h := r.Irecv(make([]byte, 16), 2, 7)
			n, err := r.WaitErr(h)
			if !errors.Is(err, ErrRankFailed) {
				t.Fatalf("WaitErr = (%d, %v), want ErrRankFailed", n, err)
			}

			// A send to the dead rank completes (eager: accepted by the
			// transport, discarded at the dead NIC) instead of wedging.
			hs := r.Isend([]byte("into the void"), 2, 8)
			if n, err := r.WaitErr(hs); err != nil {
				t.Fatalf("send to dead rank: WaitErr = (%d, %v), want clean completion", n, err)
			}

			// Survivors keep talking normally.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Rank(1).Send([]byte("alive"), 0, 9)
			}()
			buf := make([]byte, 16)
			n, err = r.WaitErr(r.Irecv(buf, 1, 9))
			if err != nil || n != 5 || !bytes.Equal(buf[:n], []byte("alive")) {
				t.Fatalf("survivor receive = (%d, %v) %q, want 5-byte 'alive'", n, err, buf[:n])
			}
			wg.Wait()
		})
	}
}
