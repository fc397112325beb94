package critpath

import (
	"testing"

	"mpioffload/internal/obs"
)

// TestAnalyzeRunHandAttribution walks a hand-built two-rank eager exchange
// and checks every segment lands in the right category, with the partition
// invariant holding exactly.
func TestAnalyzeRunHandAttribution(t *testing.T) {
	const F = int64(1)<<32 | 1 // rank 0, flow 1
	rd := RunData{
		Label:   "hand x2",
		Elapsed: 70,
		RankEnd: []int64{35, 70},
		Events: [][]obs.Event{
			{ // rank 0: offloaded eager send
				{TS: 10, Kind: obs.EvCmdEnqueue, TID: obs.TApp, A: 1},
				{TS: 20, Kind: obs.EvCmdDequeue, TID: obs.TAgent, A: 1},
				{TS: 25, Kind: obs.EvIssueEager, TID: obs.TAgent, A: 8, B: 1, Flow: F},
				{TS: 30, Kind: obs.EvCmdComplete, TID: obs.TAgent, A: 1, Flow: F},
			},
			{ // rank 1: offloaded receive of the same message
				{TS: 2, Kind: obs.EvCmdEnqueue, TID: obs.TApp, A: 9},
				{TS: 4, Kind: obs.EvCmdDequeue, TID: obs.TAgent, A: 9},
				{TS: 5, Kind: obs.EvIssueRecv, TID: obs.TAgent, A: 8, B: 0},
				{TS: 40, Kind: obs.EvDeliver, TID: obs.TNIC, A: 8, B: 0, Flow: F},
				{TS: 55, Kind: obs.EvEagerLand, TID: obs.TAgent, A: 8, B: 0, Flow: F},
				{TS: 60, Kind: obs.EvCmdComplete, TID: obs.TAgent, A: 9, Flow: F},
			},
		},
	}
	rep := AnalyzeRun(rd)
	if rep.EndRank != 1 {
		t.Fatalf("EndRank = %d, want 1", rep.EndRank)
	}
	if rep.Sum() != rep.Total || rep.Total != 70 {
		t.Fatalf("sum %d != total %d", rep.Sum(), rep.Total)
	}
	// Walk: end→complete (compute 10), complete→land (service 5),
	// land→deliver (progress-gap 15), deliver→issue on rank 0 (network 15),
	// issue→dequeue (agent gap: service 5), dequeue→enqueue (queue-wait 10),
	// enqueue→t0 (compute 10).
	want := [NumCategories]int64{
		Compute:     20,
		QueueWait:   10,
		Service:     10,
		Network:     15,
		ProgressGap: 15,
	}
	if rep.Ns != want {
		t.Fatalf("attribution = %v, want %v\n%s", rep.Ns, want, rep.Table())
	}
	if rep.Segments != 7 {
		t.Errorf("segments = %d, want 7", rep.Segments)
	}
}

// TestAnalyzeRunPartitionAlwaysExact fuzzes event layouts lightly (ring
// truncation, missing partners, empty ranks) — whatever the evidence, the
// attribution must sum exactly to the elapsed time.
func TestAnalyzeRunPartitionAlwaysExact(t *testing.T) {
	base := []obs.Event{
		{TS: 10, Kind: obs.EvCmdEnqueue, TID: obs.TApp, A: 1},
		{TS: 20, Kind: obs.EvCmdDequeue, TID: obs.TAgent, A: 1},
		{TS: 25, Kind: obs.EvIssueEager, TID: obs.TAgent, A: 8, B: 1, Flow: 1<<32 | 1},
		{TS: 30, Kind: obs.EvCmdComplete, TID: obs.TAgent, A: 1, Flow: 1<<32 | 1},
		{TS: 44, Kind: obs.EvWatchdog, TID: obs.TNIC, A: 1},
	}
	for drop := 0; drop <= len(base); drop++ {
		rd := RunData{
			Label:   "trunc",
			Elapsed: 100,
			RankEnd: []int64{100, 1},
			Events:  [][]obs.Event{base[drop:], nil},
		}
		rep := AnalyzeRun(rd)
		if rep.Sum() != 100 {
			t.Errorf("drop=%d: sum = %d, want 100\n%s", drop, rep.Sum(), rep.Table())
		}
	}
	// Degenerate runs.
	for _, rd := range []RunData{
		{Label: "empty", Elapsed: 50, RankEnd: []int64{50}, Events: [][]obs.Event{nil}},
		{Label: "norank", Elapsed: 50},
		{Label: "zero", Elapsed: 0, RankEnd: []int64{0}, Events: [][]obs.Event{nil}},
	} {
		rep := AnalyzeRun(rd)
		if rep.Sum() != rd.Elapsed {
			t.Errorf("%s: sum = %d, want %d", rd.Label, rep.Sum(), rd.Elapsed)
		}
	}
}

// TestAnalyzeDeterministic re-analyzes the same data and demands
// byte-identical tables (the walk must not depend on map order).
func TestAnalyzeDeterministic(t *testing.T) {
	mk := func() RunData {
		evs := make([][]obs.Event, 4)
		for r := 0; r < 4; r++ {
			for i := 0; i < 50; i++ {
				flow := int64(r+1)<<32 | int64(i%7+1)
				evs[r] = append(evs[r],
					obs.Event{TS: int64(i*10 + r), Kind: obs.EvIssueEager, TID: obs.TAgent, A: 8, B: int64((r + 1) % 4), Flow: flow},
					obs.Event{TS: int64(i*10 + r + 5), Kind: obs.EvEagerLand, TID: obs.TAgent, A: 8, B: int64(r), Flow: int64((r+3)%4+1)<<32 | int64(i%7+1)},
				)
			}
		}
		return RunData{Label: "det", Elapsed: 600, RankEnd: []int64{600, 599, 598, 597}, Events: evs}
	}
	first := AnalyzeRun(mk()).Table()
	for i := 0; i < 10; i++ {
		if got := AnalyzeRun(mk()).Table(); got != first {
			t.Fatalf("analysis differs between repeats:\n%s\nvs\n%s", first, got)
		}
	}
}
