package rt

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpioffload/internal/obs/critpath"
)

// TestFlightDumpOnKillRank is the acceptance path: a forced KillRank makes
// the watchdog surface ErrRankFailed, the automatic post-mortem fires, and
// the dump parses with critpath.ReadChrome (the tracetool reader) and
// contains the command lifecycle plus the watchdog instant.
func TestFlightDumpOnKillRank(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	c := NewCluster(2, Offload)
	defer c.Close()
	c.SetFlightDump(dump)
	c.SetWatchdog(30 * time.Millisecond)

	// Some completed traffic first, so the dump has full spans.
	r0, r1 := c.Rank(0), c.Rank(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for i := 0; i < 10; i++ {
			r1.Recv(buf, 0, i)
		}
	}()
	msg := make([]byte, 64)
	for i := 0; i < 10; i++ {
		r0.Send(msg, 1, i)
	}
	wg.Wait()

	// Now a receive from a rank we kill: WaitErr must blame the dead peer
	// and the first trip must write the post-mortem.
	h := r0.Irecv(make([]byte, 64), 1, 99)
	c.KillRank(1)
	_, err := r0.WaitErr(h)
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("WaitErr after KillRank = %v, want ErrRankFailed", err)
	}
	if !c.FlightDumped() {
		t.Fatal("watchdog trip did not fire the automatic flight dump")
	}

	f, err := os.Open(dump)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	defer f.Close()
	runs, err := critpath.ReadChrome(f)
	if err != nil {
		t.Fatalf("flight dump does not parse with ReadChrome: %v", err)
	}
	if len(runs) != 1 {
		t.Fatalf("flight dump has %d runs, want 1", len(runs))
	}
	run := runs[0]
	if !strings.HasPrefix(run.Label, "flight ") {
		t.Errorf("run label %q, want flight prefix", run.Label)
	}
	if len(run.Events) < 2 {
		t.Fatalf("flight dump has %d rank streams, want 2", len(run.Events))
	}
	total, watchdogs := 0, 0
	for _, evs := range run.Events {
		total += len(evs)
		for _, ev := range evs {
			if ev.Kind.String() == "watchdog" {
				watchdogs++
			}
		}
	}
	if total == 0 {
		t.Fatal("flight dump carries no events")
	}
	if watchdogs == 0 {
		t.Error("flight dump has no watchdog instant (trip + kill should both record)")
	}

	// The embedded metadata names the incident.
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata struct {
			Flight struct {
				Reason string `json:"reason"`
				Events int    `json:"events"`
			} `json:"flight"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if doc.Metadata.Flight.Reason != "rank-failed" {
		t.Errorf("flight reason %q, want rank-failed", doc.Metadata.Flight.Reason)
	}
	if doc.Metadata.Flight.Events == 0 {
		t.Error("flight metadata reports zero events")
	}

	// Only the first trip dumps: a second timed-out wait must not rewrite
	// the post-mortem.
	before, _ := os.Stat(dump)
	h2 := r0.Irecv(make([]byte, 64), 1, 100)
	if _, err := r0.WaitErr(h2); err == nil {
		t.Fatal("second wait on dead peer succeeded")
	}
	after, _ := os.Stat(dump)
	if before.ModTime() != after.ModTime() || before.Size() != after.Size() {
		t.Error("second watchdog trip rewrote the flight dump")
	}
}

// TestFlightDumpConcurrent exercises DumpFlight while traffic is in flight
// (the -race probe for the seqlock ring): concurrent writers on every rank
// plus a reader snapshotting mid-burst must be race-clean and produce a
// parsable dump.
func TestFlightDumpConcurrent(t *testing.T) {
	c := NewClusterOpts(2, Offload, Options{Agents: 2})
	defer c.Close()
	const msgs = 2000 // several records per message: well past flightRingCap
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		th := c.Rank(1).RegisterThread()
		for i := 0; i < msgs; i++ {
			th.Recv(buf, 0, i%7)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := c.Rank(0).RegisterThread()
		msg := []byte("payload!")
		for i := 0; i < msgs; i++ {
			th.Send(msg, 1, i%7)
		}
	}()
	// Snapshot repeatedly while the burst runs — wraparound plus writers.
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := c.DumpFlight(&buf, "mid-burst"); err != nil {
			t.Fatalf("DumpFlight under traffic: %v", err)
		}
		if _, err := critpath.ReadChrome(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("mid-burst dump does not parse: %v", err)
		}
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if n := c.Rank(i).flightR.recorded(); n <= flightRingCap {
			t.Errorf("rank %d recorded %d events, want more than the ring's %d (no wraparound exercised)", i, n, flightRingCap)
		}
	}
}

// TestFlightRingWraps verifies the ring is bounded: far more events than
// capacity leave exactly capacity retained records.
func TestFlightRingWraps(t *testing.T) {
	ring := newFlightRing(64)
	for i := 0; i < 1000; i++ {
		ring.record(int64(i), int64(i), packFlight(fkComplete, 0, 1, 2))
	}
	evs := ring.snapshot()
	if len(evs) != 64 {
		t.Fatalf("ring retained %d records, want 64", len(evs))
	}
	if ring.recorded() != 1000 {
		t.Fatalf("recorded() = %d, want 1000", ring.recorded())
	}
	// Oldest-first order, and only the newest 64 survive.
	for i, ev := range evs {
		if want := int64(1000 - 64 + i); ev.ts != want {
			t.Fatalf("evs[%d].ts = %d, want %d", i, ev.ts, want)
		}
	}
}

func TestFlightMetaPacking(t *testing.T) {
	cases := []struct {
		kind             flightKind
		agent, peer, tag int
	}{
		{fkSubmitSend, 0, 1, 0},
		{fkIssueRecv, 3, 1023, 77},
		{fkWatchdog, -1, 5, 0},
		{fkComplete, 255, flightFieldMask, flightFieldMask},
	}
	for _, tc := range cases {
		ev := unpackFlight(1, 42, 7, packFlight(tc.kind, tc.agent, tc.peer, tc.tag))
		if ev.kind != tc.kind || ev.peer != tc.peer&flightFieldMask || ev.tag != tc.tag&flightFieldMask {
			t.Errorf("pack/unpack(%v) = %+v", tc, ev)
		}
		if tc.agent >= 0 && tc.agent < 128 && ev.agent != tc.agent {
			t.Errorf("agent %d round-tripped to %d", tc.agent, ev.agent)
		}
		if tc.agent == -1 && ev.agent != -1 {
			t.Errorf("agent -1 round-tripped to %d", ev.agent)
		}
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
