package mpi

import (
	"sort"
)

// Split partitions the communicator: ranks supplying the same color form a
// new communicator, ordered by (key, old rank), as MPI_Comm_split. It is
// collective — every rank must call it — and is implemented with an
// allgather of the (color, key) pairs. A negative color returns nil (the
// rank opts out, like MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	n := c.Size()
	mine := []int64{int64(color), int64(key)}
	all := make([]int64, 2*n)
	c.Allgather(Int64Bytes(mine), Int64Bytes(all))

	baseID := c.nextID()
	if color < 0 {
		return nil
	}
	type member struct{ key, oldRank int }
	var members []member
	for r := 0; r < n; r++ {
		if int(all[2*r]) == color {
			members = append(members, member{key: int(all[2*r+1]), oldRank: r})
		}
	}
	sort.SliceStable(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].oldRank < members[j].oldRank
	})
	ranks := make([]int, len(members))
	me := -1
	for i, m := range members {
		ranks[i] = c.st.ranks[m.oldRank]
		if m.oldRank == c.st.me {
			me = i
		}
	}
	return c.derive(baseID+color+1, ranks, me)
}

// CartComm is a Cartesian topology over a communicator (MPI_Cart_create
// with periodic boundaries), as used by halo-exchange applications.
type CartComm struct {
	*Comm
	Dims   []int
	Coords []int
}

// CartCreate arranges the communicator's ranks in a periodic Cartesian
// grid (row-major, last dimension fastest). The product of dims must equal
// Size().
func (c *Comm) CartCreate(dims []int) *CartComm {
	total := 1
	for _, d := range dims {
		total *= d
	}
	if total != c.Size() {
		panic("mpi: Cartesian dims do not cover the communicator")
	}
	coords := make([]int, len(dims))
	r := c.Rank()
	for d := len(dims) - 1; d >= 0; d-- {
		coords[d] = r % dims[d]
		r /= dims[d]
	}
	return &CartComm{Comm: c, Dims: append([]int(nil), dims...), Coords: coords}
}

// RankOf returns the rank at the given coordinates (periodic wrap).
func (cc *CartComm) RankOf(coords []int) int {
	r := 0
	for d := 0; d < len(cc.Dims); d++ {
		x := ((coords[d] % cc.Dims[d]) + cc.Dims[d]) % cc.Dims[d]
		r = r*cc.Dims[d] + x
	}
	return r
}

// Shift returns the (source, dest) ranks displaced along dimension dim, as
// MPI_Cart_shift with periodic boundaries.
func (cc *CartComm) Shift(dim, disp int) (src, dst int) {
	up := append([]int(nil), cc.Coords...)
	up[dim] += disp
	down := append([]int(nil), cc.Coords...)
	down[dim] -= disp
	return cc.RankOf(down), cc.RankOf(up)
}
