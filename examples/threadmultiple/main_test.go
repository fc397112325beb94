package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs the program in process: in simulated time, offloading
// cuts the mean round-trip latency of eight concurrent threads below both
// locked approaches (the paper's Fig 6 ordering).
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	mean := map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				mean[f[0]] = v
			}
		}
	}
	if len(mean) != 3 {
		t.Fatalf("want 3 approach rows:\n%s", out.String())
	}
	if mean["offload"] >= mean["baseline"] || mean["offload"] >= mean["comm-self"] {
		t.Errorf("offload mean latency not lowest: %v", mean)
	}
}
