package transport

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpioffload/internal/obs"
)

// TestSocketMeshPingPong: a frame each way across real Unix-domain
// sockets, payload and header intact, counters advancing; any other
// network is refused.
func TestSocketMeshPingPong(t *testing.T) {
	if _, err := NewSocketMesh("tcp", 2); err == nil {
		t.Error("NewSocketMesh accepted a non-unix network")
	}
	t.Run("unix", func(t *testing.T) {
		m, err := NewSocketMesh("unix", 2)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		got0, got1 := make(chan Frame, 1), make(chan Frame, 1)
		m.Endpoint(0).Bind(func(f Frame) { got0 <- f })
		m.Endpoint(1).Bind(func(f Frame) { got1 <- f })

		ping := Frame{Kind: KindData, Src: 0, Dst: 1, Tag: 9, Flow: obs.FlowID(0, 1), Data: []byte("ping")}
		if err := m.Endpoint(0).Send(ping); err != nil {
			t.Fatal(err)
		}
		f := recvFrame(t, got1)
		if f.Src != 0 || f.Tag != 9 || f.Flow != obs.FlowID(0, 1) || string(f.Data) != "ping" {
			t.Fatalf("rank 1 received %+v", f)
		}
		if err := m.Endpoint(1).Send(Frame{Kind: KindData, Src: 1, Dst: 0, Tag: 10, Data: []byte("pong")}); err != nil {
			t.Fatal(err)
		}
		if f := recvFrame(t, got0); string(f.Data) != "pong" {
			t.Fatalf("rank 0 received %+v", f)
		}
		if s := m.Endpoint(0).Stats(); s.FramesSent != 1 || s.FramesRecv != 1 ||
			s.BytesSent != int64(WireLen(&ping)) {
			t.Errorf("rank 0 stats %+v", s)
		}
	})
}

func recvFrame(t *testing.T, ch chan Frame) Frame {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered")
		return Frame{}
	}
}

// TestSocketFIFOPerPair: per-(src,dst) order is the stream's byte order —
// a thousand frames from several sender goroutines arrive with each tag's
// subsequence intact.
func TestSocketFIFOPerPair(t *testing.T) {
	m, err := NewSocketMesh("unix", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const senders, per = 4, 250
	type rec struct{ tag, i int }
	got := make(chan rec, senders*per)
	m.Endpoint(1).Bind(func(f Frame) { got <- rec{f.Tag, int(f.Data[0])<<8 | int(f.Data[1])} })
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f := Frame{Kind: KindData, Src: 0, Dst: 1, Tag: s, Data: []byte{byte(i >> 8), byte(i)}}
				if err := m.Endpoint(0).Send(f); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	next := make([]int, senders)
	for n := 0; n < senders*per; n++ {
		var r rec
		select {
		case r = <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("stream stalled")
		}
		if r.i != next[r.tag] {
			t.Fatalf("tag %d: frame %d arrived, expected %d — stream reordered", r.tag, r.i, next[r.tag])
		}
		next[r.tag]++
	}
}

// TestSocketCloseReleasesEverything: Close with traffic in flight leaks
// neither goroutines nor rendezvous artifacts, and subsequent Sends fail
// fast with ErrClosed.
func TestSocketCloseReleasesEverything(t *testing.T) {
	t.Run("unix", func(t *testing.T) {
		before := runtime.NumGoroutine()
		m, err := NewSocketMesh("unix", 3)
		if err != nil {
			t.Fatal(err)
		}
		dir := m.Dir()
		m.Endpoint(1).Bind(func(Frame) {})
		// Flood in the background so Close races live writes.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Endpoint(0).Send(Frame{Kind: KindData, Src: 0, Dst: 1, Data: make([]byte, 512)})
			}
		}()
		time.Sleep(20 * time.Millisecond)
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		close(stop)
		wg.Wait()
		if err := m.Endpoint(0).Send(Frame{Dst: 1}); !errors.Is(err, ErrClosed) {
			t.Errorf("send after close: %v, want ErrClosed", err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("rendezvous dir %s survives Close (err=%v)", dir, err)
		}
		waitGoroutines(t, before)
	})
}

// waitGoroutines polls for the goroutine count to return to the baseline
// (readers and accept loops unwind asynchronously after Close returns the
// last conn close).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSocketDialTimeout: a sender whose peer never comes up fails with a
// bounded, descriptive error instead of hanging.
func TestSocketDialTimeout(t *testing.T) {
	dir := t.TempDir()
	ep, err := Listen(SocketConfig{Rank: 0, Size: 2, Dir: dir,
		DialTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	t0 := time.Now()
	err = ep.Send(Frame{Kind: KindData, Src: 0, Dst: 1})
	if err == nil {
		t.Fatal("send to absent peer succeeded")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("dial timeout took %v, want ~50ms", d)
	}
	if ep.Stats().SendErrs == 0 {
		t.Error("dial failure not counted as send error")
	}
}

// TestEnvConfig: the cmd/mpirun worker contract round-trips through the
// environment, and a non-worker process reads ok=false.
func TestEnvConfig(t *testing.T) {
	for _, v := range []string{EnvRank, EnvSize, EnvRdv} {
		t.Setenv(v, "")
		os.Unsetenv(v)
	}
	if _, ok := EnvConfig(); ok {
		t.Fatal("EnvConfig ok without worker env")
	}
	t.Setenv(EnvRank, "1")
	t.Setenv(EnvSize, "4")
	t.Setenv(EnvRdv, "/tmp/rdv")
	cfg, ok := EnvConfig()
	if !ok || cfg.Rank != 1 || cfg.Size != 4 || cfg.Dir != "/tmp/rdv" {
		t.Fatalf("EnvConfig = %+v ok=%v", cfg, ok)
	}
	t.Setenv(EnvRank, "not-a-number")
	if _, ok := EnvConfig(); ok {
		t.Fatal("EnvConfig ok with garbage rank")
	}
}

// TestWorkerPairInProcess: two Listen endpoints configured exactly as two
// cmd/mpirun workers would be (shared rendezvous dir, env-style configs)
// reach each other — the single-process stand-in for the two-process
// launch that cmd/mpirun performs.
func TestWorkerPairInProcess(t *testing.T) {
	dir := t.TempDir()
	eps := make([]*Socket, 2)
	for i := range eps {
		ep, err := Listen(SocketConfig{Rank: i, Size: 2, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	got := make(chan Frame, 4)
	eps[1].Bind(func(f Frame) { got <- f })
	eps[0].Bind(func(f Frame) { got <- f })
	for i := 0; i < 2; i++ {
		if err := eps[i].Send(Frame{Kind: KindData, Src: i, Dst: 1 - i,
			Data: []byte(fmt.Sprintf("from %d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		seen[string(recvFrame(t, got).Data)] = true
	}
	if !seen["from 0"] || !seen["from 1"] {
		t.Fatalf("cross-delivery incomplete: %v", seen)
	}
}
