package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the program in process: both modes complete every
// ping-pong and print a row. The timings are wall-clock and not checked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	s := out.String()
	for _, mode := range []string{"direct", "offload"} {
		if !strings.Contains(s, "\n"+mode+" ") {
			t.Errorf("no %s row:\n%s", mode, s)
		}
	}
}
