// Package telemetry is a registry of named counters that a run registers
// and a driver reads back once the run is over, as expvar-style JSON.
//
// A counter is a sampler func that reads a number the instrumented code
// already keeps, so the instrumented hot path pays nothing; WriteJSON calls
// every sampler on its caller's goroutine. The sim layer registers
// sim_kernel_events_total for the kernel it builds, valid once sim.Run has
// returned.
//
// Registering a name that already exists replaces its sampler, so a driver
// that sweeps many short runs through one registry reads the newest run
// instead of keeping one series per run.
//
// Nothing here serves or scrapes: the reproduction opens no listener (see
// the root package's socket guard test).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry holds named counters. The zero value is not usable; call New.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]func() float64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{metrics: make(map[string]func() float64)}
}

// CounterFunc registers (or rebinds) the counter name, sampled by fn when
// WriteJSON runs.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.metrics[name] = fn
	r.mu.Unlock()
}

// formatValue renders a float without trailing noise (integers stay bare).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteJSON writes every counter as one expvar-style JSON object keyed by
// name, in name order.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("{")
	for i, name := range names {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "\n  %q: %s", name, formatValue(r.metrics[name]()))
	}
	sb.WriteString("\n}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
