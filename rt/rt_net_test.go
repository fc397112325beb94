package rt

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpioffload/internal/transport"
)

// The transport conformance suite: the same rt-level contracts the
// loopback tests pin down, re-run over real Unix-domain sockets. The
// cluster code paths are identical by construction (Options.Transport is
// the only difference), so what these actually test is that the socket
// backend honors the wire contract the engine assumes: reliable,
// per-(src,tag)-ordered, duplicate-free delivery.

// netMeshes enumerates the backends the conformance suite runs over.
func netMeshes(t *testing.T, n int) map[string]func() transport.Mesh {
	t.Helper()
	return map[string]func() transport.Mesh{
		"loopback": func() transport.Mesh { return transport.NewLoopback(n) },
		"unix": func() transport.Mesh {
			m, err := transport.NewSocketMesh("unix", n)
			if err != nil {
				t.Fatalf("socket mesh: %v", err)
			}
			return m
		},
	}
}

func TestNetBackendPingPong(t *testing.T) {
	for name, mk := range netMeshes(t, 2) {
		for _, m := range modes() {
			m := m
			mk := mk
			t.Run(name+"/"+m.String(), func(t *testing.T) {
				c := NewClusterOpts(2, m, Options{Transport: mk()})
				defer c.Close()
				var wg sync.WaitGroup
				msg := []byte("over the wire")
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
}

func TestNetBackendNonOvertaking(t *testing.T) {
	for name, mk := range netMeshes(t, 2) {
		for _, m := range modes() {
			m := m
			mk := mk
			t.Run(name+"/"+m.String(), func(t *testing.T) {
				c := NewClusterOpts(2, m, Options{Transport: mk()})
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
}

func TestNetBackendConcurrentThreads(t *testing.T) {
	for name, mk := range netMeshes(t, 2) {
		for _, m := range modes() {
			m := m
			mk := mk
			t.Run(name+"/"+m.String(), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
				c := NewClusterOpts(2, m, Options{Transport: mk(), ShardCount: 4})
				defer c.Close()
				const threads = 4
				const iters = 30
				var wg sync.WaitGroup
				for th := 0; th < threads; th++ {
					th := th
					wg.Add(2)
					go func() {
						defer wg.Done()
						r := c.Rank(0)
						t0 := r.RegisterThread()
						out := []byte{byte(th)}
						in := make([]byte, 1)
						for i := 0; i < iters; i++ {
							t0.Send(out, 1, 100+th)
							t0.Recv(in, 1, 200+th)
							if in[0] != byte(th+1) {
								t.Errorf("thread %d got %d", th, in[0])
								return
							}
						}
						_ = r
					}()
					go func() {
						defer wg.Done()
						t1 := c.Rank(1).RegisterThread()
						in := make([]byte, 1)
						out := []byte{byte(th + 1)}
						for i := 0; i < iters; i++ {
							t1.Recv(in, 0, 100+th)
							t1.Send(out, 0, 200+th)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// TestNetBackendLargePayload: payloads far beyond a kernel socket buffer
// survive the trip intact (the socket write path blocks and resumes).
func TestNetBackendLargePayload(t *testing.T) {
	for name, mk := range netMeshes(t, 2) {
		mk := mk
		t.Run(name, func(t *testing.T) {
			c := NewClusterOpts(2, Offload, Options{Transport: mk()})
			defer c.Close()
			const size = 4 << 20
			out := make([]byte, size)
			for i := range out {
				out[i] = byte(i * 31)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				in := make([]byte, size)
				n := c.Rank(1).Recv(in, 0, 1)
				if n != size {
					t.Errorf("received %d bytes, want %d", n, size)
					return
				}
				if !bytes.Equal(in, out) {
					t.Error("4 MiB payload corrupted in transit")
				}
			}()
			c.Rank(0).Send(out, 1, 1)
			<-done
		})
	}
}

// TestNetBackendLargePayloadBursts: payloads of 4 KiB and up over both
// backends, every byte checked at both ends. Each side posts a burst of
// sends before it receives, so messages also wait in the unexpected queue.
// Over sockets these payloads come from the reader's pool and go back to
// it once landed, so a buffer recycled while a queued message still
// referenced it shows up here as corrupted bytes. Over Loopback the
// delivered payload is the sender's copy, which must never be recycled.
func TestNetBackendLargePayloadBursts(t *testing.T) {
	sizes := []int{4 << 10, 9000, 64 << 10}
	fill := func(b []byte, th, i int) []byte {
		for j := range b {
			b[j] = byte(th*131 + i*7 + j*13 + j>>8)
		}
		return b
	}
	for name, mk := range netMeshes(t, 2) {
		t.Run(name, func(t *testing.T) {
			c := NewClusterOpts(2, Offload, Options{Transport: mk()})
			defer c.Close()
			const threads = 2
			const bursts = 10
			check := func(th, i int, got []byte, n int, where string) {
				want := fill(make([]byte, sizes[i%len(sizes)]), th, i)
				if !bytes.Equal(got[:max(n, 0)], want) {
					t.Errorf("%s: thread %d message %d: %d bytes corrupted (%d arrived)", where, th, i, len(want), n)
				}
			}
			// burst sends messages i..i+len(sizes)-1 of a stream, all
			// posted before the first is waited for.
			burst := func(me *Thread, dst, tag int, msg func(i int) []byte, i int) {
				hs := make([]Handle, len(sizes))
				for k := range hs {
					hs[k] = me.Isend(msg(i+k), dst, tag)
				}
				for _, h := range hs {
					me.Rank().Wait(h)
				}
			}
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(2)
				go func() { // rank 0: a burst out, the echoes back
					defer wg.Done()
					me := c.Rank(0).RegisterThread()
					in := make([]byte, 64<<10)
					for b := 0; b < bursts; b++ {
						i := b * len(sizes)
						burst(me, 1, 10+th, func(i int) []byte { return fill(make([]byte, sizes[i%len(sizes)]), th, i) }, i)
						for k := range sizes {
							n := me.Recv(in, 1, 50+th)
							check(th, i+k, in, n, "echo")
						}
					}
				}()
				go func() { // rank 1: a burst in, checked, echoed
					defer wg.Done()
					me := c.Rank(1).RegisterThread()
					in := make([][]byte, len(sizes))
					for k := range in {
						in[k] = make([]byte, 64<<10)
					}
					n := make([]int, len(sizes))
					for b := 0; b < bursts; b++ {
						i := b * len(sizes)
						for k := range sizes {
							n[k] = me.Recv(in[k], 0, 10+th)
							check(th, i+k, in[k], n[k], "delivery")
						}
						burst(me, 0, 50+th, func(j int) []byte { return in[j-i][:max(n[j-i], 0)] }, i)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestCloseWithInFlightSocketOps pins the close-ordering contract: a
// cluster whose offload agent is blocked mid-write into a full kernel
// socket buffer (the peer accepted the connection but never drains) must
// Close promptly and leak neither goroutines nor fds.
func TestCloseWithInFlightSocketOps(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	// The black hole: listens and accepts, but never binds a handler, so
	// its reader stops pulling and the sender's kernel buffer fills.
	hole, err := transport.Listen(transport.SocketConfig{Rank: 1, Size: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := transport.Listen(transport.SocketConfig{Rank: 0, Size: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := NewWorkerCluster(ep, Offload, Options{})
	r := c.Local()
	// Flood enough bytes to fill any kernel buffer several times over, but
	// stay under the command queue's overflow capacity so the submitters
	// themselves never block: the agent is the one that must get stuck.
	payload := make([]byte, 64<<10)
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Isend(payload, 1, 5)
			}
		}()
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond) // let the agent wedge into the full socket
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on an in-flight socket write")
	}
	hole.Close()
	waitForGoroutines(t, before)
}

// waitForGoroutines polls the goroutine count back down to the baseline.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 128<<10)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
