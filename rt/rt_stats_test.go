package rt

import "testing"

// TestStatsHistograms checks the wall-clock latency histograms of the
// offload path: off by default (zero cost on the hot path), populated once
// SetStatsEnabled(true), with one queue-wait and one service sample per
// offloaded command.
func TestStatsHistograms(t *testing.T) {
	c := NewCluster(2, Offload)
	defer c.Close()

	// Disabled (default): traffic leaves the histograms empty.
	r0, r1 := c.Rank(0), c.Rank(1)
	buf := make([]byte, 64)
	r0.Send(buf, 1, 0)
	r1.Recv(buf, 0, 0)
	if s := c.Stats(); s.QueueWait.Count != 0 || s.Service.Count != 0 {
		t.Fatalf("histograms populated while disabled: %+v", s)
	}

	c.SetStatsEnabled(true)
	const iters = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := make([]byte, 64)
		for i := 0; i < iters; i++ {
			r1.Recv(b, 0, i+1)
			r1.Send(b, 0, i+1)
		}
	}()
	for i := 0; i < iters; i++ {
		r0.Send(buf, 1, i+1)
		r0.Recv(buf, 1, i+1)
	}
	<-done

	s := c.Stats()
	// 2 commands per iteration per rank (send + recv), both ranks.
	want := int64(4 * iters)
	if s.QueueWait.Count != want || s.Service.Count != want {
		t.Fatalf("queue-wait/service samples = %d/%d, want %d each",
			s.QueueWait.Count, s.Service.Count, want)
	}
	if s.QueueWait.Max <= 0 || s.Service.Max <= 0 {
		t.Fatalf("histograms recorded no positive latency: qwait=%s service=%s",
			s.QueueWait.String(), s.Service.String())
	}
	if s.Sends != int64(2*iters+1) || s.Recvs != int64(2*iters+1) {
		t.Fatalf("counter snapshot wrong: %+v", s)
	}
	rs := c.Rank(0).Stats()
	if rs.QueueWait.Count == 0 {
		t.Fatalf("per-rank snapshot empty: %+v", rs)
	}
}

// TestStatsCoherent verifies the double-read snapshot: on a quiescent
// cluster after a known burst, Stats must return exactly-consistent totals
// (and under load, the retry loop is exercised by the -race probes above).
func TestStatsCoherent(t *testing.T) {
	c := NewCluster(2, Offload)
	defer c.Close()
	buf := make([]byte, 8)
	msg := []byte("12345678")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c.Rank(1).Recv(buf, 0, 3)
		}
	}()
	for i := 0; i < 50; i++ {
		c.Rank(0).Send(msg, 1, 3)
	}
	<-done
	s := c.Stats()
	if s.Sends != 50 || s.Recvs != 50 {
		t.Fatalf("coherent Stats = sends %d recvs %d, want 50/50", s.Sends, s.Recvs)
	}
	// Two consecutive snapshots of a quiescent cluster are identical — the
	// equality the retry loop relies on.
	if s2 := c.Stats(); s2 != s {
		t.Error("quiescent snapshots differ")
	}
}
