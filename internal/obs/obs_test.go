package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	// Every hook must be a no-op on a nil recorder.
	r.CmdEnqueued(1, TApp, 1, 1)
	r.CmdDequeued(1, 1, 0, 5)
	r.CmdCompleted(1, 1, 42, 5)
	r.DutyIssueBatch(1, 1)
	r.DutyProgress(1)
	r.DutyIdle(1)
	r.Issued(1, TApp, EvIssueEager, 8, 1, 42)
	r.Progressed(TApp)
	r.CtsAnswered(1, TApp, 8, 1, 42)
	r.RdvDone(1, TApp, 8, 1, 42)
	r.Delivered(1, 8, 1, 42, 5)
	r.EagerLanded(1, TApp, 8, 1, 42)
	r.RdvStarted(1, TApp, 8, 1, 42, 5)
	r.WatchdogTripped(1, 1)
	r.Converted(1, TApp)
	if got := r.Metrics(); got != (RankMetrics{}) {
		t.Fatalf("nil recorder accumulated metrics: %+v", got)
	}
	if ev := r.Events(); ev != nil {
		t.Fatalf("nil recorder has events: %v", ev)
	}
}

func TestRingWrapKeepsNewestInOrder(t *testing.T) {
	rec := NewTrace(Options{RingCap: 4}).StartRun("x", 1).Ranks[0]
	for i := 1; i <= 10; i++ {
		rec.CmdCompleted(int64(i), int64(i), 0, 0)
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want ring cap 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(7 + i); ev.TS != want {
			t.Fatalf("event %d has ts %d, want %d (newest-in-order)", i, ev.TS, want)
		}
	}
	m := rec.Metrics()
	if m.Events != 10 || m.EventsDropped != 6 {
		t.Fatalf("events/dropped = %d/%d, want 10/6", m.Events, m.EventsDropped)
	}
}

func TestTaskClass(t *testing.T) {
	cases := map[string]uint8{
		"rank0":      TApp,
		"rank3.thr7": TApp,
		"offload.2":  TAgent,
		"commself.0": TAgent,
		"corespec.1": TAgent,
		"test":       TApp,
	}
	for name, want := range cases {
		if got := TaskClass(name); got != want {
			t.Errorf("TaskClass(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestFlowID(t *testing.T) {
	if FlowID(0, 0) == 0 {
		t.Error("FlowID must never be 0 (0 means unstamped)")
	}
	if FlowID(0, 1) == FlowID(1, 1) {
		t.Error("flow ids collide across src ranks")
	}
	if got, want := FlowID(2, 7), int64(3)<<32|7; got != want {
		t.Errorf("FlowID(2,7) = %#x, want %#x", got, want)
	}
	if got, want := FlowID(5, 1<<32|9), int64(6)<<32|9; got != want {
		t.Errorf("FlowID(5, 2^32+9) = %#x, want %#x (seq masked to 32 bits)", got, want)
	}
}

func TestRankMetricsAdd(t *testing.T) {
	a := RankMetrics{CmdEnq: 1, IssueNs: 10, Conversions: 2, FlowsSent: 1}
	a.IssuesByTID[TAgent] = 3
	a.QueueWaitH.Observe(8)
	b := RankMetrics{CmdEnq: 2, IssueNs: 5, Conversions: 1, FlowsSent: 2}
	b.IssuesByTID[TAgent] = 4
	b.QueueWaitH.Observe(100)
	a.Add(b)
	if a.CmdEnq != 3 || a.IssueNs != 15 || a.Conversions != 3 || a.IssuesByTID[TAgent] != 7 {
		t.Fatalf("Add mismatch: %+v", a)
	}
	if a.FlowsSent != 3 || a.QueueWaitH.Count != 2 || a.QueueWaitH.Max != 100 {
		t.Fatalf("flow/hist Add mismatch: sent=%d hist=%s", a.FlowsSent, a.QueueWaitH.String())
	}
}

func TestHookHistogramObservation(t *testing.T) {
	rec := NewTrace(Options{RingCap: 64}).StartRun("x", 1).Ranks[0]
	rec.CmdDequeued(10, 1, 0, 7)
	rec.CmdCompleted(20, 1, 42, 10)
	rec.Delivered(30, 8, 1, 42, 300)
	rec.RdvStarted(40, TApp, 1<<20, 1, 42, 900)
	m := rec.Metrics()
	if m.QueueWaitH.Count != 1 || m.QueueWaitH.Max != 7 {
		t.Errorf("queue-wait hist = %s, want n=1 max=7", m.QueueWaitH.String())
	}
	if m.ServiceH.Count != 1 || m.ServiceH.Max != 10 {
		t.Errorf("service hist = %s, want n=1 max=10", m.ServiceH.String())
	}
	if m.TransitH.Count != 1 || m.TransitH.Max != 300 {
		t.Errorf("transit hist = %s, want n=1 max=300", m.TransitH.String())
	}
	if m.RdvRttH.Count != 1 || m.RdvRttH.Max != 900 {
		t.Errorf("rdv-rtt hist = %s, want n=1 max=900", m.RdvRttH.String())
	}
}

func TestFlowAccounting(t *testing.T) {
	rec := NewTrace(Options{RingCap: 64}).StartRun("x", 1).Ranks[0]
	rec.Issued(1, TApp, EvIssueEager, 8, 1, 42)
	rec.Issued(2, TApp, EvIssueRecv, 8, 1, 0) // receives carry no flow at issue
	rec.EagerLanded(3, TApp, 8, 1, 7)
	rec.RdvDone(4, TNIC, 8, 1, 9) // sender-side NIC completion: not a landing
	rec.RdvDone(5, TAgent, 8, 1, 9)
	m := rec.Metrics()
	if m.FlowsSent != 1 {
		t.Errorf("FlowsSent = %d, want 1", m.FlowsSent)
	}
	if m.FlowsLanded != 2 {
		t.Errorf("FlowsLanded = %d, want 2 (eager land + software rdv fin)", m.FlowsLanded)
	}
}

// TestChromeExportIsValidJSON checks the exporter produces well-formed
// trace_event JSON covering every event kind, with span pairs intact and
// matched flow bindings emitted.
func TestChromeExportIsValidJSON(t *testing.T) {
	tr := NewTrace(Options{RingCap: 64})
	run := tr.StartRun("offload x2", 2)
	const flow = int64(1)<<32 | 1 // rank 0's first flow
	r0 := run.Ranks[0]
	r0.CmdEnqueued(100, TApp, 1, 1)
	r0.CmdDequeued(200, 1, 0, 100)
	r0.Issued(210, TAgent, EvIssueRdv, 1<<20, 1, flow)
	r0.RdvStarted(350, TAgent, 1<<20, 1, flow, 140)
	r0.RdvDone(400, TNIC, 1<<20, 1, flow)
	r0.CmdCompleted(500, 1, flow, 300)
	r0.Issued(600, TAgent, EvIssueEager, 8, 1, 0)
	r0.Issued(610, TAgent, EvIssueRecv, 8, -1, 0)
	r0.WatchdogTripped(800, 1)
	r0.Converted(900, TApp)
	r1 := run.Ranks[1]
	r1.Delivered(250, 64, 0, flow, 40)
	r1.CtsAnswered(300, TAgent, 1<<20, 0, flow)
	r1.RdvDone(450, TAgent, 1<<20, 0, flow)
	r1.Progressed(TAgent)
	run.SetEnd(1000, []int64{900, 950})

	var buf bytes.Buffer
	st, err := WriteChromeStats(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	begins, ends, flowS, flowT, flowF := 0, 0, 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			begins++
		case "e":
			ends++
		case "s":
			flowS++
		case "t":
			flowT++
		case "f":
			flowF++
		}
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("async span halves = %d/%d, want 2/2 (queued + mpi)", begins, ends)
	}
	// The rendezvous flow has both endpoints: issue.rdv starts it, the
	// receiver's software rdv.fin finishes it, and the intermediate hops
	// (deliver, cts, rdv.start, sender-NIC fin) are steps.
	if st.FlowPairs != 1 || flowS != 1 || flowF != 1 || flowT != 4 {
		t.Fatalf("flow events s/t/f = %d/%d/%d pairs=%d, want 1/4/1 pairs=1",
			flowS, flowT, flowF, st.FlowPairs)
	}
	if st.FlowEventsDropped != 0 || st.OrphanSpanEnds != 0 {
		t.Fatalf("unexpected drops: %+v", st)
	}
	if doc.Metadata["flow_pairs"] != float64(1) {
		t.Fatalf("metadata flow_pairs = %v, want 1", doc.Metadata["flow_pairs"])
	}
	for _, name := range []string{"queued", "mpi", "issue.rdv", "cts", "rdv.fin",
		"issue.eager", "issue.recv", "deliver", "rdv.start",
		"watchdog", "convert", "cmdq", "msg"} {
		if !strings.Contains(buf.String(), `"name":"`+name+`"`) {
			t.Errorf("exported trace missing %q events", name)
		}
	}
	if !strings.Contains(buf.String(), `"elapsed_ns":1000`) ||
		!strings.Contains(buf.String(), `"rank_end_ns":[900,950]`) {
		t.Errorf("metadata missing run end info:\n%s", buf.String())
	}
}

func TestSummary(t *testing.T) {
	tr := NewTrace(Options{RingCap: 8})
	run := tr.StartRun("baseline x2", 2)
	run.Ranks[0].CmdEnqueued(1, TApp, 1, 1)
	s := Summary(tr)
	if !strings.Contains(s, "baseline x2") || !strings.Contains(s, "ranks=2") {
		t.Fatalf("summary missing run info: %q", s)
	}
	if strings.Contains(s, "WARNING") {
		t.Fatalf("summary warns without drops: %q", s)
	}
}

// TestSummaryWarnsOnDrops checks the per-rank ring-wraparound warning: any
// rank that overwrote events must produce a loud per-rank WARNING line.
func TestSummaryWarnsOnDrops(t *testing.T) {
	tr := NewTrace(Options{RingCap: 4})
	run := tr.StartRun("offload x2", 2)
	for i := 1; i <= 10; i++ {
		run.Ranks[1].CmdEnqueued(int64(i), TApp, int64(i), 1)
	}
	run.Ranks[0].CmdEnqueued(1, TApp, 1, 1) // under capacity: no warning
	s := Summary(tr)
	if !strings.Contains(s, "WARNING: run 0 rank 1 dropped 6 events") {
		t.Fatalf("summary missing rank-1 drop warning: %q", s)
	}
	if strings.Contains(s, "rank 0 dropped") {
		t.Fatalf("summary warns for rank 0 which dropped nothing: %q", s)
	}
}

func TestTimestampRendering(t *testing.T) {
	for ns, want := range map[int64]string{
		0:       "0.000",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
	} {
		if got := ts(ns); got != want {
			t.Errorf("ts(%d) = %q, want %q", ns, got, want)
		}
	}
}
