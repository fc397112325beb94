package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the program in process: every rank hears from its left
// neighbour and the allreduce of 1+2+3+4 is 10.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	s := out.String()
	if n := strings.Count(s, `received "hello from rank`); n != 4 {
		t.Errorf("%d ring receives, want 4:\n%s", n, s)
	}
	if !strings.Contains(s, "allreduce sum over ranks = 10\n") {
		t.Errorf("allreduce sum is not 10:\n%s", s)
	}
}
