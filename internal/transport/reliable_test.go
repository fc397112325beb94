package transport

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"mpioffload/internal/fault"
	"mpioffload/internal/proto"
)

// chaosPlan is the seeded fate plan for the reliability tests: every
// class of damage at once, hot enough that a few hundred frames are
// guaranteed to hit all of them.
func chaosPlan() *fault.Plan {
	return &fault.Plan{Seed: 7, DropRate: 0.10, DupRate: 0.10, ReorderRate: 0.15}
}

// reliableMesh stacks Reliable(Lossy(base)) per rank.
func reliableMesh(base Mesh, plan *fault.Plan) Mesh {
	return WrapMesh(base, func(ep Endpoint) Endpoint {
		return NewReliable(NewLossy(ep, plan))
	})
}

// TestReliableRepairsLossyLoopback: the wall-clock reliable channel over
// a dropping/duplicating/reordering wire delivers every frame exactly
// once, in per-(src,tag) order — checked over the loopback backend where
// the chaos draws are cheap enough for a large stream.
func TestReliableRepairsLossyLoopback(t *testing.T) {
	runReliableExchange(t, reliableMesh(NewLoopback(2), chaosPlan()), 4, 500)
}

// TestReliableRepairsLossySocket: the same contract over real Unix-domain
// sockets — the configuration the ISSUE's chaos requirement names: rel
// logic over a transport that genuinely drops and reorders, with at least
// four submitter threads per rank. (The Makefile race target runs this
// package under -race, so these interleavings are race-probed on every CI
// pass.)
func TestReliableRepairsLossySocket(t *testing.T) {
	base, err := NewSocketMesh("unix", 2)
	if err != nil {
		t.Fatal(err)
	}
	runReliableExchange(t, reliableMesh(base, chaosPlan()), 4, 250)
}

// runReliableExchange drives `senders` goroutines per rank, each flooding
// `per` sequenced frames at the other rank on its own tag, and verifies
// exactly-once in-order delivery of every stream plus the chaos actually
// having happened.
func runReliableExchange(t *testing.T, m Mesh, senders, per int) {
	t.Helper()
	defer m.Close()
	type stream struct {
		mu   sync.Mutex
		next []uint32 // per-tag next expected payload counter
	}
	recv := [2]stream{{next: make([]uint32, senders)}, {next: make([]uint32, senders)}}
	var done sync.WaitGroup
	done.Add(2 * senders * per)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		m.Endpoint(rank).Bind(func(f Frame) {
			defer done.Done()
			v := binary.LittleEndian.Uint32(f.Data)
			s := &recv[rank]
			s.mu.Lock()
			defer s.mu.Unlock()
			if want := s.next[f.Tag]; v != want {
				t.Errorf("rank %d tag %d: payload %d arrived, want %d", rank, f.Tag, v, want)
			}
			s.next[f.Tag]++
		})
	}
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		for s := 0; s < senders; s++ {
			rank, s := rank, s
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 4)
				for i := 0; i < per; i++ {
					binary.LittleEndian.PutUint32(buf, uint32(i))
					f := Frame{Kind: KindData, Src: rank, Dst: 1 - rank, Tag: s,
						Data: append([]byte(nil), buf...)}
					if err := m.Endpoint(rank).Send(f); err != nil {
						t.Errorf("rank %d sender %d: %v", rank, s, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if waitTimeout(&done, 30*time.Second) {
		t.Fatal("streams incomplete: frames lost despite the reliable layer")
	}
	for rank := range recv {
		for tag, n := range recv[rank].next {
			if int(n) != per {
				t.Errorf("rank %d tag %d: %d/%d delivered", rank, tag, n, per)
			}
		}
	}
	// The wire must actually have misbehaved, and the channel must have
	// repaired it: fate draws on the lossy layer, retransmits and reorder
	// repairs on the reliable layer.
	rel := m.Endpoint(0).(*Reliable)
	fs := findLossy(rel).FaultStats()
	if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
		t.Errorf("chaos plan never fired: %+v", fs)
	}
	rs := rel.RelStats()
	if rs.Retransmits == 0 {
		t.Error("drops repaired without retransmits?")
	}
	if rs.DupDropped == 0 {
		t.Error("duplicates never deduplicated")
	}
	if rs.OutOfOrder == 0 {
		t.Error("reorders never buffered")
	}
	if rs.Abandoned != 0 {
		t.Errorf("%d frames abandoned — retry budget too small for this plan", rs.Abandoned)
	}
}

func findLossy(r *Reliable) *Lossy { return r.inner.(*Lossy) }

// waitTimeout waits on wg, reporting true on timeout.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return false
	case <-time.After(d):
		return true
	}
}

// TestReliableCloseStopsTimers: closing with unacked frames in flight (a
// peer that never acks) must stop every retransmission timer and return —
// no timer goroutines left re-sending into a closed wire.
func TestReliableCloseStopsTimers(t *testing.T) {
	base := NewLoopback(2)
	rel := NewReliable(base.Endpoint(0))
	// Rank 1 never binds and never acks: every send stays pending.
	for i := 0; i < 20; i++ {
		if err := rel.Send(Frame{Kind: KindData, Src: 0, Dst: 1, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- rel.Close() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on in-flight retransmission timers")
	}
	if err := rel.Send(Frame{Kind: KindData, Dst: 1}); err == nil {
		t.Error("send after close accepted")
	}
}

// TestReliableRejectsForeignRanks: a frame naming a rank outside the job
// — a send to one, or a sequenced frame or ack from one off the wire — is
// refused by the wrapped endpoint or dropped, never indexed.
func TestReliableRejectsForeignRanks(t *testing.T) {
	base := NewLoopback(2)
	rel := NewReliable(base.Endpoint(1))
	defer rel.Close()
	got := make(chan Frame, 1)
	rel.Bind(func(f Frame) { got <- f })
	if err := rel.Send(Frame{Kind: KindData, Src: 1, Dst: 2}); err == nil {
		t.Error("send to rank 2 of 2 accepted")
	}
	for _, kind := range []uint8{KindSeq, KindAck} {
		if err := base.Endpoint(0).Send(Frame{Kind: kind, Src: 7, Dst: 1, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case f := <-got:
		t.Fatalf("frame from rank 7 delivered: %+v", f)
	default:
	}
	if rs := rel.RelStats(); rs != (proto.RelStats{}) {
		t.Errorf("foreign frames counted: %+v", rs)
	}
}
