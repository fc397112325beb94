package rt

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpioffload/internal/transport"
)

// The batched wire: the offload agent flushes each drain batch's sends
// with one transport call per destination, and the socket reader decodes
// frames out of a buffer. These tests pin what that may not change —
// order, payloads, completion of every handle — and the system-call
// counts it exists to cut.

// socketMesh builds an n-rank Unix-socket mesh or fails the test.
func socketMesh(t *testing.T, n int) transport.Mesh {
	t.Helper()
	m, err := transport.NewSocketMesh("unix", n)
	if err != nil {
		t.Fatalf("socket mesh: %v", err)
	}
	return m
}

// payloadFor is message seq of stream (src, tag): its length and every
// byte depend on all three, so a reordered, torn or misrouted message is
// caught.
func payloadFor(src, tag, seq int) []byte {
	b := make([]byte, 1+(seq*13+tag)%200)
	for i := range b {
		b[i] = byte(src*61 + tag*17 + seq*7 + i)
	}
	return b
}

// meshStats sums every endpoint's transport counters.
func meshStats(m transport.Mesh) transport.Stats {
	var s transport.Stats
	for i := 0; i < m.Size(); i++ {
		s.Add(m.Endpoint(i).Stats())
	}
	return s
}

// TestBatchSyscallRatios: an offload flood over sockets with default
// Options makes far fewer system calls than frames — the parent design
// made one write and two reads per frame. 20 480 messages of 64 B go in
// bursts of 256 from one registered thread to windowed receives.
func TestBatchSyscallRatios(t *testing.T) {
	mesh := socketMesh(t, 2)
	c := NewClusterOpts(2, Offload, Options{Transport: mesh})
	defer c.Close()
	const msgs, burst, size = 20480, 256, 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := c.Rank(1).RegisterThread()
		bufs := make([][]byte, burst)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		hs := make([]Handle, burst)
		for b := 0; b < msgs/burst; b++ {
			for i := range hs {
				hs[i] = th.Irecv(bufs[i], 0, 1)
			}
			for i, h := range hs {
				seq := b*burst + i
				if n, _ := th.WaitErr(h); n != size || bufs[i][0] != byte(seq) || bufs[i][1] != byte(seq>>8) {
					t.Errorf("message %d: %d bytes starting %v", seq, n, bufs[i][:2])
					return
				}
			}
		}
	}()
	th := c.Rank(0).RegisterThread()
	out := make([]byte, size)
	hs := make([]Handle, burst)
	for b := 0; b < msgs/burst; b++ {
		for i := range hs {
			seq := b*burst + i
			out[0], out[1] = byte(seq), byte(seq>>8)
			hs[i] = th.Isend(out, 1, 1)
		}
		for _, h := range hs {
			th.WaitErr(h)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("flood stalled")
	}
	s := meshStats(mesh)
	if s.FramesSent != msgs || s.FramesRecv != msgs {
		t.Fatalf("wire counted %d frames sent, %d received; want %d", s.FramesSent, s.FramesRecv, msgs)
	}
	w := float64(s.WriteCalls) / float64(s.FramesSent)
	r := float64(s.ReadCalls) / float64(s.FramesRecv)
	t.Logf("write calls per frame %.4f, read calls per frame %.4f", w, r)
	if w > 0.25 {
		t.Errorf("write calls per frame %.4f > 0.25: the agent is not batching its sends", w)
	}
	if r > 0.25 {
		t.Errorf("read calls per frame %.4f > 0.25: the reader is not buffering", r)
	}
}

// TestBatchThreeRanksInterleaved: three ranks over sockets, two registered
// threads per rank each sending to both other ranks, alternating
// destinations inside one burst, so every drain batch mixes destinations
// and tags. Every (src, tag) stream arrives in order with every byte.
func TestBatchThreeRanksInterleaved(t *testing.T) {
	const ranks, threads, perStream, burst = 3, 2, 200, 32
	mesh := socketMesh(t, ranks)
	c := NewClusterOpts(ranks, Offload, Options{Transport: mesh})
	defer c.Close()
	c.SetWatchdog(20 * time.Second)
	tagOf := func(src, th int) int { return 100*src + th }

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		peers := [2]int{(r + 1) % ranks, (r + 2) % ranks}
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func() { // sender: message i goes to peers[i%2] as seq i/2 of that stream
				defer wg.Done()
				t0 := c.Rank(r).RegisterThread()
				tag := tagOf(r, th)
				var hs []Handle
				for i := 0; i < 2*perStream; i++ {
					hs = append(hs, t0.Isend(payloadFor(r, tag, i/2), peers[i%2], tag))
					if len(hs) == burst || i == 2*perStream-1 {
						for _, h := range hs {
							if _, err := t0.WaitErr(h); err != nil {
								t.Errorf("rank %d thread %d: send: %v", r, th, err)
								return
							}
						}
						hs = hs[:0]
					}
				}
			}()
			for _, src := range peers {
				wg.Add(1)
				go func() { // receiver of stream (src, tagOf(src, th)) on rank r
					defer wg.Done()
					tag := tagOf(src, th)
					buf := make([]byte, 256)
					for seq := 0; seq < perStream; seq++ {
						n, err := c.Rank(r).WaitErr(c.Rank(r).Irecv(buf, src, tag))
						if err != nil {
							t.Errorf("rank %d from (%d, %d) seq %d: %v", r, src, tag, seq, err)
							return
						}
						if want := payloadFor(src, tag, seq); !bytes.Equal(buf[:n], want) {
							t.Errorf("rank %d from (%d, %d): message %d is not seq %d's payload", r, src, tag, seq, seq)
							return
						}
					}
				}()
			}
		}
	}
	wg.Wait()
	if s := meshStats(mesh); s.WriteCalls >= s.FramesSent {
		t.Errorf("%d write calls for %d frames: no drain batch was flushed in one call", s.WriteCalls, s.FramesSent)
	}
}

// TestBatchPeerLostDuringFlood: the destination dies mid-flood — killed,
// or its socket endpoint closed so writes fail — and every send handle on
// the sender still completes: staged sends to a dead peer complete
// locally, and a failed write marks the peer down.
func TestBatchPeerLostDuringFlood(t *testing.T) {
	for _, how := range []string{"kill", "close"} {
		t.Run(how, func(t *testing.T) {
			mesh := socketMesh(t, 2)
			c := NewClusterOpts(2, Offload, Options{Transport: mesh})
			defer c.Close()
			var sent atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for th := 0; th < 2; th++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					t0 := c.Rank(0).RegisterThread()
					out := make([]byte, 64)
					hs := make([]Handle, 256)
					for {
						select {
						case <-stop:
							return
						default:
						}
						for i := range hs {
							hs[i] = t0.Isend(out, 1, th)
						}
						for _, h := range hs {
							t0.WaitErr(h)
						}
						sent.Add(int64(len(hs)))
					}
				}()
			}
			waitSent := func(n int64) {
				for deadline := time.Now().Add(10 * time.Second); sent.Load() < n; {
					if time.Now().After(deadline) {
						t.Fatalf("flood stalled at %d sends", sent.Load())
					}
					time.Sleep(time.Millisecond)
				}
			}
			waitSent(4096)
			if how == "kill" {
				c.KillRank(1)
			} else {
				mesh.Endpoint(1).Close()
			}
			// Keep flooding the dead peer for a while, then stop.
			waitSent(sent.Load() + 4096)
			close(stop)
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(10 * time.Second):
				t.Fatal("a send handle never completed after the peer was lost")
			}
			if !c.Failed(1) {
				t.Error("the lost peer is not marked down")
			}
		})
	}
}
