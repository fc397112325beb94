//go:build !race

package obs

import (
	"os/exec"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// hookSink is package-level so the compiler cannot prove the receiver nil
// and delete the check we are measuring.
var hookSink *Recorder

// timedHooks are the hooks on the hot paths of an untraced run, one of
// each family, including the flow and histogram hooks, since each added
// argument rides the same early-out.
var timedHooks = []struct {
	name string
	call func()
}{
	{"Progressed", func() { hookSink.Progressed(TApp) }},
	{"CmdEnqueued", func() { hookSink.CmdEnqueued(1, TApp, 1, 1) }},
	{"CmdDequeued", func() { hookSink.CmdDequeued(1, 1, 0, 5) }},
	{"CmdCompleted", func() { hookSink.CmdCompleted(1, 1, 42, 5) }},
	{"Issued", func() { hookSink.Issued(1, TApp, EvIssueEager, 8, 1, 42) }},
	{"Delivered", func() { hookSink.Delivered(1, 8, 1, 42, 5) }},
	{"EagerLanded", func() { hookSink.EagerLanded(1, TApp, 8, 1, 42) }},
	{"RdvStarted", func() { hookSink.RdvStarted(1, TApp, 8, 1, 42, 5) }},
}

// TestDisabledHookOverhead proves the overhead budget of tracing off: a
// hook on the absent (nil) recorder of an untraced run must cost under
// 5 ns — a nil check. Every hook family is measured.
// Measured by hand (not testing.Benchmark) so the whole check runs in
// milliseconds; the minimum over several rounds discards scheduler noise,
// and up to three attempts discard a neighbour that held the CPU.
// Excluded under -race, whose instrumentation multiplies the cost of every
// call.
func TestDisabledHookOverhead(t *testing.T) {
	// A hook fails only if it is over the bound in every attempt: a package
	// running in parallel can hold the other core through one whole
	// attempt, which says nothing about the hook.
	const iters, attempts = 2_000_000, 3
	nsPerOp := make([]float64, len(timedHooks)) // latest measurement of each hook
	passed := make([]bool, len(timedHooks))
	for attempt := 0; attempt < attempts; attempt++ {
		runtime.Gosched()
		all := true
		for i, h := range timedHooks {
			if passed[i] {
				continue
			}
			best := time.Duration(1 << 62)
			for round := 0; round < 5; round++ {
				start := time.Now()
				for n := 0; n < iters; n++ {
					h.call()
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			nsPerOp[i] = float64(best.Nanoseconds()) / iters
			passed[i] = nsPerOp[i] < 5
			all = all && passed[i]
			t.Logf("attempt %d: disabled %s: %.2f ns/op", attempt, h.name, nsPerOp[i])
		}
		if all {
			break
		}
	}
	for i, h := range timedHooks {
		if !passed[i] {
			t.Errorf("disabled %s costs %.2f ns/op in all %d attempts, want < 5", h.name, nsPerOp[i], attempts)
		}
	}
}

// TestTimedHooksInline: the early-out is a nil check only if the compiler
// inlines the hook into its caller, so the current toolchain's inlining
// report must name every timed hook. Raising a hook over the inliner's
// budget fails here even on a host too noisy for the timing test to tell.
func TestTimedHooksInline(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, h := range timedHooks {
		if !regexp.MustCompile(`(?m)can inline \(\*Recorder\)\.` + h.name + `$`).Match(out) {
			t.Errorf("(*Recorder).%s is not inlinable", h.name)
		}
	}
}
