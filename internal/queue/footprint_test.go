package queue

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// leastAllocated reports the fewest heap bytes f allocated over three runs,
// each after a fresh prep (which may be nil), with the collector off. The
// minimum discards what the runtime itself allocates now and then, such as
// the records of a new OS thread when other processes load the host.
func leastAllocated(prep, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		if prep != nil {
			prep()
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestShardedCommitsOnUse pins the footprint: an unused queue costs its
// shard table, Register adds one ring, and the overflow ring appears only
// with the first overflow enqueue.
func TestShardedCommitsOnUse(t *testing.T) {
	const shards, shardCap, overflowCap = 16, 4096, 4096
	ring := uint64(shardCap * unsafe.Sizeof((*int)(nil)))
	var q *Sharded[*int]
	fresh := func() { q = NewSharded[*int](shards, shardCap, overflowCap) }
	if got := leastAllocated(nil, fresh); got > 64*shards {
		t.Fatalf("NewSharded(%d, %d, %d) allocated %d bytes, want O(shardCount) <= %d",
			shards, shardCap, overflowCap, got, 64*shards)
	}
	var id int
	if got := leastAllocated(fresh, func() { id = q.Register() }); got < ring || got > ring+1024 {
		t.Fatalf("Register allocated %d bytes, want one %d-byte ring", got, ring)
	}
	v := new(int)
	var one [1]*int
	if got := leastAllocated(nil, func() { q.TryEnqueue(id, v); q.DequeueBatch(one[:]) }); got != 0 {
		t.Fatalf("registered enqueue+dequeue allocated %d bytes", got)
	}
	if got := leastAllocated(fresh, func() { q.TryEnqueue(Overflow, v) }); got < overflowCap*8 {
		t.Fatalf("first overflow enqueue allocated %d bytes, want the overflow ring", got)
	}
	if got := leastAllocated(nil, func() { q.TryEnqueue(Overflow, v); q.DequeueBatch(one[:]) }); got != 0 {
		t.Fatalf("later overflow enqueue+dequeue allocated %d bytes", got)
	}
}
