package rt

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSlotReuseSendCountReset: request-pool slots recycle LIFO, and a send
// completion never writes the byte count — so a send landing on a slot that
// previously carried a 5-byte receive must still report 0, not the stale 5.
func TestSlotReuseSendCountReset(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()
			r := c.Rank(0)

			// A receive puts 5 into some slot's count, then releases it.
			c.Rank(1).Send([]byte("hello"), 0, 1)
			if n := r.Recv(make([]byte, 8), 1, 1); n != 5 {
				t.Fatalf("setup recv returned %d, want 5", n)
			}

			// The free list is a stack, so this send reuses that exact slot.
			h := r.Isend([]byte("xyz"), 1, 2)
			if n := r.Wait(h); n != 0 {
				t.Fatalf("send on recycled slot reported %d bytes, want 0 (stale recv count leaked)", n)
			}
			buf := make([]byte, 8)
			if n := c.Rank(1).Recv(buf, 0, 2); n != 3 || string(buf[:n]) != "xyz" {
				t.Fatalf("drain recv got %q", buf[:n])
			}
		})
	}
}

// TestCloseJoinsOffloadGoroutines: Close must block until every offload
// goroutine has exited — repeatedly creating and closing clusters must not
// accumulate background goroutines.
func TestCloseJoinsOffloadGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		c := NewCluster(4, Offload)
		c.Rank(0).Send([]byte("x"), 1, 0)
		buf := make([]byte, 1)
		c.Rank(1).Recv(buf, 0, 0)
		c.Close()
		c.Close() // idempotent: second Close returns immediately
	}
	// Close joins synchronously; the settle loop only absorbs unrelated
	// runtime goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked: %d before, %d after 10 create/Close cycles", before, got)
	}
}

// TestTruncationSurfacesError: a message longer than the posted buffer must
// fail that one request with ErrTruncate — not panic the offload goroutine
// (which previously took down the whole process). Covers both the
// posted-then-matched path and the unexpected-message path.
func TestTruncationSurfacesError(t *testing.T) {
	for _, m := range modes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			c := NewCluster(2, m)
			defer c.Close()

			// Posted-receive path: recv first, oversized send lands on it.
			h := c.Rank(1).Irecv(make([]byte, 4), 0, 3)
			c.Rank(0).Send(make([]byte, 16), 1, 3)
			n, err := c.Rank(1).WaitErr(h)
			if !errors.Is(err, ErrTruncate) || n != 0 {
				t.Fatalf("posted path: WaitErr = (%d, %v), want (0, ErrTruncate)", n, err)
			}

			// Unexpected path: oversized message queued before the recv posts.
			c.Rank(0).Send(make([]byte, 32), 1, 4)
			time.Sleep(time.Millisecond)
			h2 := c.Rank(1).Irecv(make([]byte, 4), 0, 4)
			n, err = c.Rank(1).WaitErr(h2)
			if !errors.Is(err, ErrTruncate) || n != 0 {
				t.Fatalf("unexpected path: WaitErr = (%d, %v), want (0, ErrTruncate)", n, err)
			}

			// Wait/Test report the raw sentinel as a negative count.
			c.Rank(0).Send(make([]byte, 16), 1, 5)
			h3 := c.Rank(1).Irecv(make([]byte, 4), 0, 5)
			if n := c.Rank(1).Wait(h3); n >= 0 {
				t.Fatalf("Wait on truncated recv = %d, want negative sentinel", n)
			}

			// The failed slot recycles cleanly: the next op is unaffected.
			c.Rank(0).Send([]byte("ok"), 1, 6)
			buf := make([]byte, 8)
			if n := c.Rank(1).Recv(buf, 0, 6); n != 2 || string(buf[:n]) != "ok" {
				t.Fatalf("post-truncation recv got %q", buf[:n])
			}
		})
	}
}

// TestRegisteredThreadsFIFO: each registered thread posts through a private
// SPSC shard; per-thread message order must survive the round-robin drain
// (the MPI non-overtaking rule per (source, tag)).
func TestRegisteredThreadsFIFO(t *testing.T) {
	c := NewCluster(2, Offload)
	defer c.Close()
	const threads = 4
	const iters = 100
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(2)
		go func() { // sender thread with a private shard
			defer wg.Done()
			snd := c.Rank(0).RegisterThread()
			for i := 0; i < iters; i++ {
				snd.Send([]byte{byte(i)}, 1, 100+th)
			}
		}()
		go func() { // receiver thread, also sharded
			defer wg.Done()
			rcv := c.Rank(1).RegisterThread()
			buf := make([]byte, 1)
			for i := 0; i < iters; i++ {
				rcv.Recv(buf, 0, 100+th)
				if buf[0] != byte(i) {
					t.Errorf("thread %d: message %d overtaken, got %d", th, i, buf[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestThreadsBeyondShardCount: registrants past ShardCount share the
// overflow shard — everything still completes, nothing is lost.
func TestThreadsBeyondShardCount(t *testing.T) {
	c := NewClusterOpts(2, Offload, Options{ShardCount: 2})
	defer c.Close()
	const threads = 6
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		th := th
		wg.Add(2)
		go func() {
			defer wg.Done()
			snd := c.Rank(0).RegisterThread()
			for i := 0; i < 50; i++ {
				snd.Send([]byte{byte(i)}, 1, th)
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 1)
			for i := 0; i < 50; i++ {
				c.Rank(1).Recv(buf, 0, th)
				if buf[0] != byte(i) {
					t.Errorf("thread %d overtaken at %d: got %d", th, i, buf[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkShardedVsSharedPost is the tentpole's wall-clock claim in
// miniature: concurrent threads posting sends through private shards
// (RegisterThread) versus all contending on the shared overflow MPMC (plain
// Rank calls — the pre-sharding behaviour). Run with -cpu to vary thread
// count; cmd/mtbench sweeps this properly into BENCH_mtscale.json.
func BenchmarkShardedVsSharedPost(b *testing.B) {
	for _, variant := range []string{"shared", "sharded"} {
		variant := variant
		b.Run(variant, func(b *testing.B) {
			c := NewClusterOpts(2, Offload, Options{ShardCount: 64})
			defer c.Close()
			r := c.Rank(0)
			sink := c.Rank(1)
			go func() { // keep the transport drained
				buf := make([]byte, 64)
				for !sink.stop.Load() {
					h := sink.Irecv(buf, 0, 0)
					sink.Wait(h)
				}
			}()
			payload := make([]byte, 64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var th *Thread
				if variant == "sharded" {
					th = r.RegisterThread()
				}
				hs := make([]Handle, 0, 32)
				flush := func() {
					for _, h := range hs {
						r.Wait(h)
					}
					hs = hs[:0]
				}
				for pb.Next() {
					if th != nil {
						hs = append(hs, th.Isend(payload, 1, 0))
					} else {
						hs = append(hs, r.Isend(payload, 1, 0))
					}
					if len(hs) == cap(hs) {
						flush()
					}
				}
				flush()
			})
		})
	}
}
