package proto

import (
	"math/rand"
	"testing"
)

// TestRelRxInOrder: a clean sequential stream passes straight through,
// one value per Accept, never flagged dup or held.
func TestRelRxInOrder(t *testing.T) {
	var rx RelRx[int]
	for seq := uint64(1); seq <= 10; seq++ {
		ready, dup, held := rx.Accept(seq, int(seq)*100)
		if dup || held {
			t.Fatalf("seq %d: dup=%v held=%v on in-order stream", seq, dup, held)
		}
		if len(ready) != 1 || ready[0] != int(seq)*100 {
			t.Fatalf("seq %d: ready=%v", seq, ready)
		}
	}
	if rx.Expect() != 10 || rx.Held() != 0 {
		t.Fatalf("expect=%d held=%d after clean stream", rx.Expect(), rx.Held())
	}
}

// TestRelRxReorderFlush: early arrivals buffer until the gap fills, then
// flush in one ready batch, in sequence order.
func TestRelRxReorderFlush(t *testing.T) {
	var rx RelRx[string]
	for _, seq := range []uint64{3, 2} {
		ready, dup, held := rx.Accept(seq, "early")
		if len(ready) != 0 || dup || !held {
			t.Fatalf("seq %d early: ready=%v dup=%v held=%v", seq, ready, dup, held)
		}
	}
	if rx.Held() != 2 {
		t.Fatalf("held=%d, want 2", rx.Held())
	}
	ready, dup, held := rx.Accept(1, "gap")
	if dup || held {
		t.Fatalf("gap fill flagged dup=%v held=%v", dup, held)
	}
	if len(ready) != 3 || ready[0] != "gap" || ready[1] != "early" || ready[2] != "early" {
		t.Fatalf("flush batch = %v", ready)
	}
	if rx.Expect() != 3 || rx.Held() != 0 {
		t.Fatalf("expect=%d held=%d after flush", rx.Expect(), rx.Held())
	}
}

// TestRelRxDuplicates: both duplicate classes — a seq already delivered
// (late) and a seq already sitting in the reorder buffer — report dup and
// deliver nothing.
func TestRelRxDuplicates(t *testing.T) {
	var rx RelRx[int]
	rx.Accept(1, 1)
	if ready, dup, _ := rx.Accept(1, 1); len(ready) != 0 || !dup {
		t.Fatalf("late duplicate: ready=%v dup=%v", ready, dup)
	}
	rx.Accept(5, 5)
	if ready, dup, held := rx.Accept(5, 5); len(ready) != 0 || !dup || held {
		t.Fatalf("buffered duplicate: ready=%v dup=%v held=%v", ready, dup, held)
	}
	if rx.Held() != 1 {
		t.Fatalf("held=%d after buffered dup, want 1", rx.Held())
	}
}

// TestRelRxRandomPermutations: any delivery order of 1..n — with every
// frame also duplicated — comes out exactly once each, in order. This is
// the property the simulated NIC leans on.
func TestRelRxRandomPermutations(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		seqs := rng.Perm(n)
		// Interleave a duplicate of a random earlier element after each
		// original so dedup is probed mid-stream, not just at the end.
		var arrivals []uint64
		for i, s := range seqs {
			arrivals = append(arrivals, uint64(s)+1)
			arrivals = append(arrivals, uint64(seqs[rng.Intn(i+1)])+1)
		}
		var rx RelRx[uint64]
		var got []uint64
		for _, seq := range arrivals {
			ready, _, _ := rx.Accept(seq, seq)
			got = append(got, ready...)
		}
		if len(got) != n {
			t.Fatalf("trial %d: delivered %d values, want %d", trial, len(got), n)
		}
		for i, v := range got {
			if v != uint64(i)+1 {
				t.Fatalf("trial %d: position %d delivered seq %d", trial, i, v)
			}
		}
		if rx.Held() != 0 {
			t.Fatalf("trial %d: %d values stranded in reorder buffer", trial, rx.Held())
		}
	}
}

// TestRelRxStats: the receiver half counts one ack per sequenced arrival,
// duplicates included, plus each dup it drops and each arrival it holds.
func TestRelRxStats(t *testing.T) {
	var rx RelRx[int]
	for _, seq := range []uint64{1, 3, 3, 2, 1, 4} {
		rx.Accept(seq, int(seq))
	}
	want := RelStats{Acks: 6, DupDropped: 2, OutOfOrder: 1}
	if got := rx.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestRelTxRetryPolicy pins the sender half's policy case by case: the
// timeout, as a multiple of the base, runs 2, 8, 16 and then stays at 16;
// the 21st expiry abandons; an ack or a cancel ends resending for good.
func TestRelTxRetryPolicy(t *testing.T) {
	wantMult := func(try int) int { return []int{2, 8, 16}[min(try, 3)-1] }
	for _, tc := range []struct {
		name     string
		ackAfter int  // expiries before the ack or cancel (-1: neither)
		cancel   bool // cancel instead of acking
		resends  int  // expiries that must resend
		stats    RelStats
	}{
		{name: "never acked", ackAfter: -1, resends: relMaxRetries,
			stats: RelStats{RelSends: 1, Retransmits: relMaxRetries, Abandoned: 1}},
		{name: "acked at once", ackAfter: 0, stats: RelStats{RelSends: 1}},
		{name: "acked after 3 resends", ackAfter: 3, resends: 3,
			stats: RelStats{RelSends: 1, Retransmits: 3}},
		{name: "cancelled after 5 resends", ackAfter: 5, cancel: true, resends: 5,
			stats: RelStats{RelSends: 1, Retransmits: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tx RelTx[string]
			seq := tx.Send("v")
			if seq != 1 {
				t.Fatalf("first seq = %d, want 1", seq)
			}
			for try := 1; try <= relMaxRetries+2; try++ {
				if try-1 == tc.ackAfter {
					if tc.cancel {
						var dropped []string
						tx.Cancel(func(v string) { dropped = append(dropped, v) })
						if len(dropped) != 1 || dropped[0] != "v" {
							t.Fatalf("cancel dropped %v", dropped)
						}
					} else if v, ok := tx.Ack(seq); !ok || v != "v" {
						t.Fatalf("ack = %q, %v", v, ok)
					}
					if _, ok := tx.Ack(seq); ok {
						t.Fatal("second ack found the value still pending")
					}
				}
				v, mult, resend := tx.Expire(seq)
				if resend != (try <= tc.resends) {
					t.Fatalf("expiry %d: resend = %v", try, resend)
				}
				if resend && (v != "v" || mult != wantMult(try)) {
					t.Fatalf("expiry %d: v=%q mult=%d, want %d", try, v, mult, wantMult(try))
				}
			}
			if tx.Pending(seq) {
				t.Fatal("value still pending")
			}
			if got := tx.Stats(); got != tc.stats {
				t.Fatalf("stats = %+v, want %+v", got, tc.stats)
			}
		})
	}
}

// txModel is the sender half's specification: a map from each pending
// sequence number to the resends it has had.
type txModel struct {
	next  uint64
	tries map[uint64]int
	stats RelStats
}

func (m *txModel) send() uint64 {
	m.next++
	m.tries[m.next] = 0
	m.stats.RelSends++
	return m.next
}

func (m *txModel) ack(seq uint64) bool {
	_, ok := m.tries[seq]
	delete(m.tries, seq)
	return ok
}

func (m *txModel) expire(seq uint64) (mult int, resend bool) {
	n, ok := m.tries[seq]
	switch {
	case !ok:
		return 0, false
	case n == 20:
		delete(m.tries, seq)
		m.stats.Abandoned++
		return 0, false
	}
	m.tries[seq] = n + 1
	m.stats.Retransmits++
	return []int{2, 8, 16}[min(n, 2)], true
}

// TestRelTxRandomSchedules: seeded random interleavings of sends, acks
// (lost, duplicated, reordered — any seq, pending or not, in any order)
// and timer expiries, with the odd cancel, agree with txModel step by
// step: what is resent, with which multiplier, what is pending, and every
// counter.
func TestRelTxRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var total RelStats
	for trial := 0; trial < 50; trial++ {
		var tx RelTx[uint64]
		m := txModel{tries: map[uint64]int{}}
		for step := 0; step < 2000; step++ {
			// Acks name any seq, pending or not (0 and next+1 never are);
			// expiries mostly hit the few newest, so some reach abandonment.
			seq := uint64(rng.Intn(int(m.next) + 2))
			switch r := rng.Intn(100); {
			case r < 4:
				if got, want := tx.Send(10*(m.next+1)), m.send(); got != want {
					t.Fatalf("trial %d step %d: Send = %d, want %d", trial, step, got, want)
				}
			case r < 14:
				v, ok := tx.Ack(seq)
				if want := m.ack(seq); ok != want || (ok && v != 10*seq) {
					t.Fatalf("trial %d step %d: Ack(%d) = %d, %v; want ok=%v", trial, step, seq, v, ok, want)
				}
			case r < 99:
				if rng.Intn(2) == 0 {
					seq = m.next + 1 - uint64(rng.Intn(min(int(m.next)+2, 4)))
				}
				v, mult, resend := tx.Expire(seq)
				wantMult, want := m.expire(seq)
				if resend != want || mult != wantMult || (resend && v != 10*seq) {
					t.Fatalf("trial %d step %d: Expire(%d) = %d, %d, %v; want %d, %v",
						trial, step, seq, v, mult, resend, wantMult, want)
				}
			default:
				n := 0
				tx.Cancel(func(uint64) { n++ })
				if n != len(m.tries) {
					t.Fatalf("trial %d step %d: Cancel dropped %d, want %d", trial, step, n, len(m.tries))
				}
				clear(m.tries)
			}
			for s := uint64(0); s <= m.next+1; s++ {
				if _, want := m.tries[s]; tx.Pending(s) != want {
					t.Fatalf("trial %d step %d: Pending(%d) = %v", trial, step, s, !want)
				}
			}
			if got := tx.Stats(); got != m.stats {
				t.Fatalf("trial %d step %d: stats %+v, model %+v", trial, step, got, m.stats)
			}
		}
		total.Add(m.stats)
	}
	if total.Abandoned == 0 || total.Retransmits == 0 {
		t.Fatalf("schedules never exercised resend and abandonment: %+v", total)
	}
}
