package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the program in process: both approaches build the same
// histogram at rank 0 (ranks 0 and 2 add 1 and 3 to the even bins, ranks 1
// and 3 add 2 and 4 to the odd ones).
func TestRun(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	s := out.String()
	for _, a := range []string{"baseline", "offload"} {
		found := false
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, a+" ") {
				found = true
				if !strings.HasSuffix(line, "[4 6 4 6 4 6 4 6]") {
					t.Errorf("%s histogram wrong: %q", a, line)
				}
			}
		}
		if !found {
			t.Errorf("no %s row:\n%s", a, s)
		}
	}
}
