package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"mpioffload/internal/fabric"
	"mpioffload/internal/model"
	"mpioffload/internal/proto"
	"mpioffload/internal/vclock"
)

// allocated reports the heap bytes f allocates, with the collector off.
func allocated(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOffloaderCommitsOnUse pins the per-rank set-up cost of the offload
// engine: a default Endeavor rank's command queue and request pool are
// bounds, so New commits neither, and the first Submit adds the submitting
// thread's ring (plus a chunk of request slots and the command itself).
// Each figure is the least of three fresh ranks: the runtime itself
// allocates now and then (a new OS thread's records) on a loaded host.
func TestOffloaderCommitsOnUse(t *testing.T) {
	p := model.Endeavor()
	least := [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)} // New, first, second Submit
	for i := 0; i < 3; i++ {
		k := vclock.NewKernel()
		eng := proto.NewEngine(k, fabric.New(k, p, 1), p, 0)
		var o *Offloader
		var got [3]uint64
		got[0] = allocated(func() { o = New(k, eng) })
		k.Go("rank0", func(tk *vclock.Task) {
			issue := func(*vclock.Task) proto.Req { return nil }
			got[1] = allocated(func() { o.Wait(tk, o.Submit(tk, issue)) })
			got[2] = allocated(func() { o.Wait(tk, o.Submit(tk, issue)) })
		})
		k.Run()
		for j := range least {
			least[j] = min(least[j], got[j])
		}
	}
	t.Logf("New %d B, first Submit+Wait %d B, second %d B", least[0], least[1], least[2])
	if least[0] >= 64<<10 {
		t.Fatalf("core.New allocated %d bytes, want < 64 KiB", least[0])
	}
	ring := uint64(p.CommandQueueCap) * uint64(unsafe.Sizeof((*Cmd)(nil)))
	if least[1] < ring || least[1] > ring+8<<10 {
		t.Fatalf("first Submit allocated %d bytes, want one %d-byte ring (+ < 8 KiB)", least[1], ring)
	}
	if least[2] >= ring {
		t.Fatalf("second Submit allocated %d bytes, want no second ring", least[2])
	}
}
