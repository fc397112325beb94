package coll

import (
	"fmt"
	"testing"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// TestPhantomAllreduceGolden pins the phantom allreduce (the path the
// workload models behind Figs 9–14 drive) to recorded virtual end times
// and fabric traffic: recursive doubling at every size (a phantom payload
// never takes the ring), including a size that is not 8-byte aligned.
// The subtest names keep the fattree=false tag they were recorded under.
func TestPhantomAllreduceGolden(t *testing.T) {
	cases := []struct {
		n, rpn     int
		bytes      int
		msgs, wire int64
		ends       []vclock.Time
	}{
		{4, 1, 8, 8, 64, []vclock.Time{2240, 2240, 2240, 2240}},
		{4, 1, 4096, 8, 32768, []vclock.Time{5137, 5137, 5137, 5137}},
		{4, 1, RingThreshold, 8, 524288, []vclock.Time{53563, 53563, 53563, 53563}},
		{4, 1, 1<<20 + 24, 24, 8389824, []vclock.Time{617163, 617163, 617163, 617163}},
		{5, 1, 8, 10, 80, []vclock.Time{2401, 3041, 2488, 2488, 3042}},
		{5, 1, 4096, 10, 40960, []vclock.Time{7376, 8187, 6918, 6918, 7132}},
		{5, 1, RingThreshold, 10, 655360, []vclock.Time{86666, 90022, 73478, 81670, 68572}},
		{5, 1, 1<<20 + 24, 30, 10487280, []vclock.Time{1451933, 1451948, 1274744, 1274759, 1274759}},
		{5, 1, 100003, 10, 1000030, []vclock.Time{131182, 135974, 110814, 123314, 103036}},
		{8, 1, 8, 24, 192, []vclock.Time{3217, 3217, 3217, 3217, 3217, 3217, 3217, 3217}},
		{8, 1, 4096, 24, 98304, []vclock.Time{7307, 7307, 7307, 7307, 7307, 7307, 7307, 7307}},
		{8, 1, RingThreshold, 24, 1572864, []vclock.Time{78559, 78559, 78559, 78559, 78559, 78559, 78559, 78559}},
		{8, 1, 1<<20 + 24, 72, 25169472, []vclock.Time{925602, 925602, 925602, 925602, 925602, 925602, 925602, 925602}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d rpn=%d fattree=false bytes=%d", tc.n, tc.rpn, tc.bytes), func(t *testing.T) {
			p := model.Endeavor()
			p.RanksPerNode = tc.rpn
			k := vclock.NewKernel()
			f := fabric.New(k, p, tc.n)
			ranks := make([]int, tc.n)
			for i := range ranks {
				ranks[i] = i
			}
			ends := make([]vclock.Time, tc.n)
			for i := 0; i < tc.n; i++ {
				e := proto.NewEngine(k, f, p, i)
				g := Group{Ranks: ranks, Me: i, Nodes: f.Nodes()}
				k.Go(fmt.Sprintf("rank%d", i), func(tk *vclock.Task) {
					e.WaitAll(tk, IallreduceAutoN(tk, e, g, tc.bytes, 7))
					ends[g.Me] = tk.Now()
				})
			}
			k.Run()
			if st := f.Stats(); st.Msgs != tc.msgs || st.Bytes != tc.wire {
				t.Errorf("fabric carried %d msgs / %d bytes, recorded %d / %d", st.Msgs, st.Bytes, tc.msgs, tc.wire)
			}
			for r, want := range tc.ends {
				if ends[r] != want {
					t.Errorf("rank %d ends at %d, recorded %d", r, ends[r], want)
				}
			}
		})
	}
}

// TestPhantomMatchesDataVariantTiming: a phantom payload runs the same
// recursive-doubling schedule as the data one and moves the same bytes
// through the same phases, so for a payload whose every split lands on
// whole 8-byte elements (data splits round to them, phantom splits do not)
// both finish at the same virtual time on every rank.
func TestPhantomMatchesDataVariantTiming(t *testing.T) {
	t.Run("recursive-doubling", func(t *testing.T) {
		const n, bytes = 6, 256 << 10
		run := func(phantom bool) []vclock.Time {
			ends := make([]vclock.Time, n)
			runGroup(t, n, func(tk *vclock.Task, e *proto.Engine, g Group) {
				p := payload{n: bytes}
				if !phantom {
					p = pay(make([]byte, bytes))
				}
				e.WaitAll(tk, iallreduce(tk, e, g, p, func(d, s []byte) {}, 5))
				ends[g.Me] = tk.Now()
			})
			return ends
		}
		data, ph := run(false), run(true)
		for r := range data {
			if data[r] != ph[r] {
				t.Fatalf("rank %d: data variant ends at %d, phantom at %d", r, data[r], ph[r])
			}
		}
	})
}
