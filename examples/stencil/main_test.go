package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the program in process: the approach changes only the
// timing, so all four rows carry the same checksum.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want a heading, a header and 4 approach rows:\n%s", len(lines), out.String())
	}
	sums := map[string]bool{}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		sums[f[len(f)-1]] = true
	}
	if len(sums) != 1 || sums["0.000000"] {
		t.Errorf("checksums differ across approaches or are zero:\n%s", out.String())
	}
}
