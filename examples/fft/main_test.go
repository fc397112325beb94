package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the program in process: every approach matches the serial
// transform, and the serial transform finds the DC offset and both tones.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want a heading, a header, 3 approach rows and the bins:\n%s", len(lines), out.String())
	}
	for _, line := range lines[2:5] {
		f := strings.Fields(line)
		if e, err := strconv.ParseFloat(f[1], 64); err != nil || e >= 1e-6 {
			t.Errorf("%s: max error %s not below 1e-6", f[0], f[1])
		}
	}
	if lines[5] != "dominant bins: [0 37 411]" {
		t.Errorf("got %q, want the DC bin and the two tones", lines[5])
	}
}
