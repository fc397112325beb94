package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestJSONExport(t *testing.T) {
	r := New()
	r.CounterFunc("sim_kernel_events_total", func() float64 { return 12345 })
	r.CounterFunc("app_ratio", func() float64 { return 2.5 })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"app_ratio\": 2.5,\n  \"sim_kernel_events_total\": 12345\n}\n"
	if buf.String() != want {
		t.Errorf("WriteJSON = %q, want %q", buf.String(), want)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if got := m["sim_kernel_events_total"]; got != 12345.0 {
		t.Errorf("sim_kernel_events_total = %v, want 12345", got)
	}
}

// TestFuncRebind verifies replace-on-reregister: successive runs rebind the
// same metric name and the newest sampler wins (no leak, no stale reads).
func TestFuncRebind(t *testing.T) {
	r := New()
	r.CounterFunc("x", func() float64 { return 1 })
	r.CounterFunc("x", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"x\": 2\n}\n"; buf.String() != want {
		t.Errorf("rebind did not take: %q", buf.String())
	}
}
