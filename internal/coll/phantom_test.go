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
// and fabric traffic: recursive doubling on the flat fabric at every size
// (a phantom payload never takes the flat ring), and on the 2:1 fat-tree
// the hierarchical schedule — uniform and pipelined at rpn 2, uniform
// unchunked at rpn 4, leader-based on an under-full last node — including
// sizes that are neither 8-byte aligned nor a multiple of the member count.
func TestPhantomAllreduceGolden(t *testing.T) {
	cases := []struct {
		n, rpn     int
		fat        bool
		bytes      int
		msgs, wire int64
		ends       []vclock.Time
	}{
		{4, 1, false, 8, 8, 64, []vclock.Time{2240, 2240, 2240, 2240}},
		{4, 1, false, 4096, 8, 32768, []vclock.Time{5137, 5137, 5137, 5137}},
		{4, 1, false, RingThreshold, 8, 524288, []vclock.Time{53563, 53563, 53563, 53563}},
		{4, 1, false, 1<<20 + 24, 24, 8389824, []vclock.Time{617163, 617163, 617163, 617163}},
		{5, 1, false, 8, 10, 80, []vclock.Time{2401, 3041, 2488, 2488, 3042}},
		{5, 1, false, 4096, 10, 40960, []vclock.Time{7376, 8187, 6918, 6918, 7132}},
		{5, 1, false, RingThreshold, 10, 655360, []vclock.Time{86666, 90022, 73478, 81670, 68572}},
		{5, 1, false, 1<<20 + 24, 30, 10487280, []vclock.Time{1451933, 1451948, 1274744, 1274759, 1274759}},
		{5, 1, false, 100003, 10, 1000030, []vclock.Time{131182, 135974, 110814, 123314, 103036}},
		{8, 1, false, 8, 24, 192, []vclock.Time{3217, 3217, 3217, 3217, 3217, 3217, 3217, 3217}},
		{8, 1, false, 4096, 24, 98304, []vclock.Time{7307, 7307, 7307, 7307, 7307, 7307, 7307, 7307}},
		{8, 1, false, RingThreshold, 24, 1572864, []vclock.Time{78559, 78559, 78559, 78559, 78559, 78559, 78559, 78559}},
		{8, 1, false, 1<<20 + 24, 72, 25169472, []vclock.Time{925602, 925602, 925602, 925602, 925602, 925602, 925602, 925602}},
		{8, 2, true, 256 << 10, 64, 3670016, []vclock.Time{157308, 155608, 157308, 155608, 157308, 155608, 157308, 155608}},
		{8, 2, true, 2 << 20, 384, 29368320, []vclock.Time{779800, 779785, 779800, 779785, 779800, 779785, 779800, 779785}},
		{8, 2, true, 2<<20 + 13, 384, 29368502, []vclock.Time{779801, 779786, 779800, 779785, 779801, 779786, 779800, 779785}},
		{8, 4, true, 1 << 20, 160, 14686208, []vclock.Time{575910, 575925, 560801, 560757, 575910, 575925, 560801, 560757}},
		{12, 3, true, 1<<20 + 3, 216, 23074882, []vclock.Time{590777, 640313, 640328, 590777, 640313, 640328, 590777, 640313, 640328, 590777, 640313, 640328}},
		{7, 3, true, 1 << 20, 60, 12585472, []vclock.Time{1253989, 1254004, 1103289, 1254044, 1254059, 1103344, 952559}},
		{7, 3, true, 300001, 36, 3601036, []vclock.Time{378284, 378299, 334524, 393840, 393855, 350080, 298650}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d rpn=%d fattree=%v bytes=%d", tc.n, tc.rpn, tc.fat, tc.bytes), func(t *testing.T) {
			p := model.Endeavor()
			p.RanksPerNode = tc.rpn
			if tc.fat {
				p.Topo = fatTree(4, 2)
			}
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
