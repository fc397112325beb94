package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the program in process: CG converges below its 1e-6
// tolerance, in the same number of iterations and to the same residual
// under every approach.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want a heading, a header and 3 approach rows:\n%s", len(lines), out.String())
	}
	var want string
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		got := f[1] + " " + f[2]
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s: iterations and residual %q, want %q", f[0], got, want)
		}
		if r, err := strconv.ParseFloat(f[2], 64); err != nil || r >= 1e-6 {
			t.Errorf("%s: residual %s not below 1e-6", f[0], f[2])
		}
	}
}
