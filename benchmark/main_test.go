package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"mpioffload/internal/transport"
	"mpioffload/rt"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec holds the metric and workload tables to the benchmark contract
// and BENCHMARK.json to the tables.
func TestSpec(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q does not match %v", s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
		if m.Source == "" || m.Moves == "" {
			t.Errorf("%s: source and moves must be stated", m.Name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a layer metric carries no bound", m.Name)
		}
	}

	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

// TestSmoke runs every workload at tiny sizes through both passes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			cfg := runConfig{seed: 7, tiny: true, log: io.Discard}
			rep, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("end-to-end pass: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("end-to-end pass printed %d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := rep.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}

			cfg.trace = true
			cfg.traceFile = filepath.Join(dir, w.Name+".json")
			rep, err = runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("traced pass: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("traced pass printed %d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := rep.Metrics[m.Name]; !ok {
					t.Errorf("traced pass did not print %s", m.Name)
				}
			}
			b, err := os.ReadFile(cfg.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("Chrome trace does not load: %v", err)
			}
			spans := 0
			for _, e := range doc.TraceEvents {
				if e.Ph == "X" {
					spans++
				}
			}
			if spans < 3 {
				t.Errorf("Chrome trace holds %d spans", spans)
			}
		})
	}
}

// mangler is a misbehaving endpoint: it corrupts, loses or repeats the
// nth data frame it is asked to send.
type mangler struct {
	transport.Endpoint
	how  string
	nth  int64
	seen atomic.Int64
}

func (m *mangler) Send(f transport.Frame) error {
	if f.Kind != transport.KindData || m.seen.Add(1) != m.nth {
		return m.Endpoint.Send(f)
	}
	switch m.how {
	case "flip":
		f.Data[len(f.Data)-1] ^= 0x40
	case "drop":
		return nil
	case "duplicate":
		again := f
		again.Data = append([]byte(nil), f.Data...)
		if err := m.Endpoint.Send(again); err != nil {
			return err
		}
	}
	return m.Endpoint.Send(f)
}

// TestVerifierLive proves the receive-side check can fail: one flipped
// payload byte, one dropped frame and one duplicated frame must each show
// as failed operations, and the same flood without them as none.
func TestVerifierLive(t *testing.T) {
	for _, how := range []string{"", "flip", "drop", "duplicate"} {
		sh := floodShapeFor(false, true)
		if how != "" {
			sh.cluster.wrap = func(ep transport.Endpoint) transport.Endpoint {
				return &mangler{Endpoint: ep, how: how, nth: 1000}
			}
		}
		rep, err := floodRep(sh, rt.Offload, newPayloads(3, sh.size), nil)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case how == "" && rep.failed != 0:
			t.Errorf("clean flood: %d failed operations: %s", rep.failed, rep.why)
		case how != "" && rep.failed == 0:
			t.Errorf("%s: the verifier saw nothing", how)
		case how != "":
			t.Logf("%s: %d failed: %s", how, rep.failed, rep.why)
		}
	}
}
