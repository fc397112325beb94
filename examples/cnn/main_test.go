package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the program in process: the global loss falls at every
// report.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	var losses []float64
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "step" {
			v, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, v)
		}
	}
	if len(losses) != 5 {
		t.Fatalf("%d loss reports, want 5:\n%s", len(losses), out.String())
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] >= losses[i-1] {
			t.Errorf("loss did not fall: %v", losses)
		}
	}
}
