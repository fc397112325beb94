package critpath

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpioffload/internal/obs"
)

// ReadChrome reconstructs per-run event streams from a Chrome trace_event
// JSON file produced by obs.WriteChrome, so cmd/tracetool can analyze an
// export offline. The inverse mapping follows the exporter exactly: pid
// decodes to (run, rank) as pid = run*1000 + rank, instants map back to
// event kinds by name, async "queued"/"mpi" span boundaries map back to the
// command lifecycle (the "e queued" half is redundant with the dequeue and
// is skipped), and flow/meta/counter records carry no extra information.
// Timestamps are parsed digit-exactly (the exporter writes fixed-precision
// microseconds), never through float64, so a round trip preserves virtual
// nanoseconds and the analyzer's output is identical to the in-memory path.
func ReadChrome(r io.Reader) ([]RunData, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("critpath: decoding trace: %w", err)
	}
	runs := make([]RunData, len(f.Metadata.Runs))
	for i, mr := range f.Metadata.Runs {
		runs[i] = RunData{
			Label:   mr.Label,
			Elapsed: mr.ElapsedNs,
			RankEnd: mr.RankEndNs,
			Events:  make([][]obs.Event, len(mr.RankEndNs)),
		}
	}
	for _, ce := range f.TraceEvents {
		run, rank := ce.Pid/1000, ce.Pid%1000
		if run < 0 || run >= len(runs) || rank < 0 {
			continue
		}
		ev, ok, err := decodeEvent(ce)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		rd := &runs[run]
		for rank >= len(rd.Events) {
			rd.Events = append(rd.Events, nil)
		}
		// traceEvents are written rank-major in ring (chronological) order,
		// so appending in file order keeps each rank's stream sorted.
		rd.Events[rank] = append(rd.Events[rank], ev)
	}
	return runs, nil
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Metadata    chromeMeta    `json:"metadata"`
}

type chromeMeta struct {
	Runs []chromeRunMeta `json:"runs"`
}

type chromeRunMeta struct {
	Label     string  `json:"label"`
	ElapsedNs int64   `json:"elapsed_ns"`
	RankEndNs []int64 `json:"rank_end_ns"`
}

type chromeEvent struct {
	Name string                     `json:"name"`
	Ph   string                     `json:"ph"`
	Pid  int                        `json:"pid"`
	Tid  int                        `json:"tid"`
	Ts   json.Number                `json:"ts"`
	ID   string                     `json:"id"`
	Args map[string]json.RawMessage `json:"args"`
}

// decodeEvent inverts one traceEvents entry; ok=false for records that
// carry no analyzer-visible information (meta, counters, flow bindings,
// redundant span halves).
func decodeEvent(ce chromeEvent) (obs.Event, bool, error) {
	var ev obs.Event
	switch ce.Ph {
	case "b", "e":
	case "i":
	default:
		return ev, false, nil // M, C, s, t, f
	}
	ts, err := parseTS(ce.Ts.String())
	if err != nil {
		return ev, false, fmt.Errorf("critpath: bad ts %q: %w", ce.Ts.String(), err)
	}
	ev.TS = ts
	ev.TID = uint8(ce.Tid)
	switch ce.Ph {
	case "b", "e":
		if ce.Ph == "e" && ce.Name == "queued" {
			return ev, false, nil // redundant with the dequeue instant
		}
		id, err := parseCmdID(ce.ID)
		if err != nil {
			return ev, false, err
		}
		ev.A = id
		switch {
		case ce.Ph == "b" && ce.Name == "queued":
			ev.Kind = obs.EvCmdEnqueue
		case ce.Ph == "b" && ce.Name == "mpi":
			ev.Kind = obs.EvCmdDequeue
		case ce.Ph == "e" && ce.Name == "mpi":
			ev.Kind = obs.EvCmdComplete
			ev.Flow = argInt(ce.Args, "flow")
		default:
			return ev, false, nil
		}
		return ev, true, nil
	}
	// Instants.
	k := obs.KindFromString(ce.Name)
	if k == 0 {
		return ev, false, nil
	}
	ev.Kind = k
	switch k {
	case obs.EvWatchdog:
		ev.A = argInt(ce.Args, "peer")
	case obs.EvConvert:
	default:
		ev.A = argInt(ce.Args, "bytes")
		ev.B = argInt(ce.Args, "peer")
		ev.Flow = argInt(ce.Args, "flow")
	}
	return ev, true, nil
}

// parseTS converts the exporter's fixed-precision microsecond string
// ("123.456") back to virtual nanoseconds without going through float64.
func parseTS(s string) (int64, error) {
	us := s
	frac := "0"
	if i := strings.IndexByte(s, '.'); i >= 0 {
		us, frac = s[:i], s[i+1:]
	}
	u, err := strconv.ParseInt(us, 10, 64)
	if err != nil {
		return 0, err
	}
	for len(frac) < 3 {
		frac += "0"
	}
	f, err := strconv.ParseInt(frac[:3], 10, 64)
	if err != nil {
		return 0, err
	}
	return u*1000 + f, nil
}

// parseCmdID recovers the command id from an async span id "p<pid>c<id>".
func parseCmdID(id string) (int64, error) {
	i := strings.IndexByte(id, 'c')
	if !strings.HasPrefix(id, "p") || i < 0 {
		return 0, fmt.Errorf("critpath: bad span id %q", id)
	}
	return strconv.ParseInt(id[i+1:], 10, 64)
}

// argInt reads one integer field of an args object (0 when absent).
func argInt(args map[string]json.RawMessage, key string) int64 {
	raw, ok := args[key]
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0
	}
	return v
}
