// Realtime: the offload design as genuinely concurrent Go on real
// hardware (package rt) — no simulation, wall-clock time. Eight goroutines
// per rank issue sends concurrently; in direct (THREAD_MULTIPLE) mode they
// serialize on the rank's mutex, in offload mode each call is one
// lock-free enqueue handled by a dedicated communication goroutine.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"mpioffload/rt"
)

func main() { run(os.Stdout) }

// run is the whole program, writing its report to w.
func run(w io.Writer) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	const threads = 8
	const iters = 2000

	fmt.Fprintf(w, "real-time offload demo: %d goroutine pairs × %d ping-pongs\n", threads, iters)
	fmt.Fprintf(w, "(GOMAXPROCS=%d — the offload design assumes spare cores for the\n"+
		" communication thread; on a single core it merely competes)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-8s %16s %14s\n", "mode", "wall time", "per exchange")
	for _, mode := range []rt.Mode{rt.Direct, rt.Offload} {
		c := rt.NewCluster(2, mode)
		var wg sync.WaitGroup
		start := time.Now()
		for th := 0; th < threads; th++ {
			th := th
			wg.Add(2)
			go func() {
				defer wg.Done()
				r := c.Rank(0)
				buf := make([]byte, 64)
				for i := 0; i < iters; i++ {
					r.Send(buf, 1, th)
					r.Recv(buf, 1, 1000+th)
				}
			}()
			go func() {
				defer wg.Done()
				r := c.Rank(1)
				buf := make([]byte, 64)
				for i := 0; i < iters; i++ {
					r.Recv(buf, 0, th)
					r.Send(buf, 0, 1000+th)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		c.Close()
		fmt.Fprintf(w, "%-8s %16v %14v\n", mode, elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(threads*iters)).Round(time.Nanosecond))
	}
}
