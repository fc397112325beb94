package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Chrome trace_event exporter.
//
// The output is the JSON Object Format of the Trace Event specification:
// a {"traceEvents":[...],"metadata":{...}} object loadable by
// chrome://tracing and Perfetto. Every run/rank pair becomes one process
// (pid = runIndex*1000 + rank) with one named thread per thread class.
// Command lifecycles are exported as async span pairs — "queued" between
// enqueue and dequeue, "mpi" between dequeue and completion — so the
// enqueue→issue→complete path of each offloaded message renders as two
// stacked slices; protocol events (eager/RTS issue, CTS, rendezvous FIN,
// delivery, watchdog, conversion) are instants, and the command-queue
// depth is a counter track.
//
// Causal message flows are exported as flow events: each flow-stamped
// message emits ph:"s" at its sender-side issue instant, ph:"t" at every
// intermediate hop (NIC delivery, CTS answer, RDMA start, sender-side
// FIN), and ph:"f" (bp:"e") at its terminal landing, so Perfetto draws
// send→recv arrows across rank timelines. The export runs two passes: the
// first collects which flows have both endpoints retained in the ring and
// which command ids have their span begins; the second emits. Flow
// bindings whose peer endpoint was overwritten by ring wraparound, and
// span ends whose begin was overwritten, are dropped (the JSON stays
// valid) and counted in ChromeStats and the metadata block.
//
// Output is byte-deterministic: events are emitted in ring order (which is
// chronological per rank), no Go maps are traversed (maps are used for
// keyed lookup only), and timestamps are fixed-precision. Virtual
// nanoseconds map to trace microseconds (ts = virtual_ns / 1000, three
// decimal places), so a span of 1 virtual µs reads as 1 µs in the viewer.

// ChromeStats reports what a Chrome export matched and what it had to
// drop because the per-rank ring overwrote one side of a pair.
type ChromeStats struct {
	// FlowPairs counts flows with both the sender-side issue and the
	// receiver-side terminal event retained: each emits one matched
	// ph:"s"/ph:"f" pair.
	FlowPairs int
	// FlowEventsDropped counts flow bindings suppressed because the flow's
	// peer endpoint was lost to ring wraparound (the underlying instants
	// are still exported; only the arrows are dropped).
	FlowEventsDropped int
	// OrphanSpanEnds counts async span ends ("queued" or "mpi") suppressed
	// because the matching begin was lost to ring wraparound.
	OrphanSpanEnds int
}

// WriteChrome writes the trace as Chrome trace_event JSON.
func WriteChrome(w io.Writer, tr *Trace) error {
	_, err := WriteChromeStats(w, tr)
	return err
}

// WriteChromeStats writes the trace as Chrome trace_event JSON and reports
// the flow/span matching statistics.
func WriteChromeStats(w io.Writer, tr *Trace) (ChromeStats, error) {
	var st ChromeStats
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return st, err
	}
	ec := &eventWriter{bw: bw}
	for ri, run := range tr.Runs {
		rm := newRunMatch(run)
		st.FlowPairs += rm.pairs
		for _, rec := range run.Ranks {
			pid := ri*1000 + rec.rank
			ec.meta(pid, 0, "process_name", fmt.Sprintf("%s rank%d", run.Label, rec.rank))
			for tid := uint8(0); tid < NumTID; tid++ {
				ec.meta(pid, int(tid), "thread_name", TIDName(tid))
			}
			for _, ev := range rec.Events() {
				ec.event(pid, ev, rm, &st)
			}
		}
	}
	if _, err := bw.WriteString("\n],\n\"metadata\":{\"runs\":["); err != nil {
		return st, err
	}
	for ri, run := range tr.Runs {
		if ri > 0 {
			bw.WriteString(",")
		}
		fmt.Fprintf(bw, `{"label":%q,"elapsed_ns":%d,"rank_end_ns":[`, run.Label, run.ElapsedNs)
		for r := range run.Ranks {
			if r > 0 {
				bw.WriteString(",")
			}
			var end int64
			if r < len(run.RankEndNs) {
				end = run.RankEndNs[r]
			}
			fmt.Fprintf(bw, "%d", end)
		}
		bw.WriteString(`],"dropped":[`)
		for r, rec := range run.Ranks {
			if r > 0 {
				bw.WriteString(",")
			}
			fmt.Fprintf(bw, "%d", rec.Metrics().EventsDropped)
		}
		bw.WriteString("]}")
	}
	fmt.Fprintf(bw, `],"flow_pairs":%d,"flow_events_dropped":%d,"orphan_span_ends":%d`,
		st.FlowPairs, st.FlowEventsDropped, st.OrphanSpanEnds)
	for _, me := range tr.Meta {
		fmt.Fprintf(bw, ",%q:", me.Key)
		bw.Write(me.JSON)
	}
	if _, err := bw.WriteString("}}\n"); err != nil {
		return st, err
	}
	return st, bw.Flush()
}

// runMatch is the first-pass index of one run: which flows have both
// endpoints retained, and which command ids have their span begins.
type runMatch struct {
	flows map[int64]uint8           // flow id → endpoint bits
	spans map[int64]map[int64]uint8 // pid-less: rank → cmd id → begin bits
	pairs int
}

const (
	flowHasStart  uint8 = 1 << 0
	flowHasFinish uint8 = 1 << 1
	spanHasEnq    uint8 = 1 << 0
	spanHasDeq    uint8 = 1 << 1
)

// flowRole classifies an event's part in its flow: 's' start, 't' step,
// 'f' finish, 0 none.
func flowRole(ev Event) byte {
	if ev.Flow == 0 {
		return 0
	}
	switch ev.Kind {
	case EvIssueEager, EvIssueRdv, EvIssueRecv:
		return 's'
	case EvDeliver, EvCTS, EvRdvStart:
		return 't'
	case EvEagerLand:
		return 'f'
	case EvRdvFin:
		if ev.TID == TNIC {
			return 't' // sender-side NIC completion: intermediate hop
		}
		return 'f' // receiver software noticed the landing: terminal
	}
	return 0
}

func newRunMatch(run *RunTrace) *runMatch {
	rm := &runMatch{
		flows: make(map[int64]uint8),
		spans: make(map[int64]map[int64]uint8),
	}
	for r, rec := range run.Ranks {
		ids := make(map[int64]uint8)
		rm.spans[int64(r)] = ids
		for _, ev := range rec.Events() {
			switch ev.Kind {
			case EvCmdEnqueue:
				ids[ev.A] |= spanHasEnq
			case EvCmdDequeue:
				ids[ev.A] |= spanHasDeq
			}
			switch flowRole(ev) {
			case 's':
				rm.flows[ev.Flow] |= flowHasStart
			case 'f':
				rm.flows[ev.Flow] |= flowHasFinish
			}
		}
	}
	for _, bits := range rm.flows {
		if bits == flowHasStart|flowHasFinish {
			rm.pairs++
		}
	}
	return rm
}

// matched reports whether the flow has both endpoints retained.
func (rm *runMatch) matched(flow int64) bool {
	return rm.flows[flow] == flowHasStart|flowHasFinish
}

type eventWriter struct {
	bw    *bufio.Writer
	wrote bool
}

func (e *eventWriter) emit(format string, args ...any) {
	if e.wrote {
		e.bw.WriteString(",\n")
	}
	e.wrote = true
	fmt.Fprintf(e.bw, format, args...)
}

func (e *eventWriter) meta(pid, tid int, name, value string) {
	e.emit(`{"name":%q,"ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
		name, pid, tid, value)
}

// ts renders a virtual-ns timestamp as trace µs with fixed precision.
func ts(ns int64) string { return fmt.Sprintf("%d.%03d", ns/1000, ns%1000) }

// async emits one half of an async span. The id carries pid and command id
// so spans never collide across ranks or runs.
func (e *eventWriter) async(pid int, tid uint8, ph, name string, id int64, t int64, args string) {
	e.emit(`{"name":%q,"cat":"cmd","ph":%q,"id":"p%dc%d","pid":%d,"tid":%d,"ts":%s%s}`,
		name, ph, pid, id, pid, tid, ts(t), args)
}

func (e *eventWriter) instant(pid int, tid uint8, name string, t int64, args string) {
	e.emit(`{"name":%q,"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s%s}`,
		name, pid, tid, ts(t), args)
}

func (e *eventWriter) counter(pid int, t int64, depth int64) {
	e.emit(`{"name":"cmdq","ph":"C","pid":%d,"tid":0,"ts":%s,"args":{"depth":%d}}`,
		pid, ts(t), depth)
}

// flow emits one flow-event binding (ph "s", "t" or "f") at the given
// instant. Matched flows share the id "f<flow>" across ranks.
func (e *eventWriter) flow(pid int, tid uint8, ph byte, flow int64, t int64) {
	bp := ""
	if ph == 'f' {
		bp = `,"bp":"e"`
	}
	e.emit(`{"name":"msg","cat":"flow","ph":%q,"id":"f%d"%s,"pid":%d,"tid":%d,"ts":%s}`,
		string(ph), flow, bp, pid, tid, ts(t))
}

// flowArg renders the flow field of an instant's args ("" for no flow).
func flowArg(flow int64) string {
	if flow == 0 {
		return ""
	}
	return fmt.Sprintf(`,"flow":%d`, flow)
}

func (e *eventWriter) event(pid int, ev Event, rm *runMatch, st *ChromeStats) {
	rank := int64(pid % 1000)
	switch ev.Kind {
	case EvCmdEnqueue:
		e.async(pid, ev.TID, "b", "queued", ev.A, ev.TS, "")
		e.counter(pid, ev.TS, ev.B)
	case EvCmdDequeue:
		if rm.spans[rank][ev.A]&spanHasEnq != 0 {
			e.async(pid, ev.TID, "e", "queued", ev.A, ev.TS, "")
		} else {
			st.OrphanSpanEnds++
		}
		e.async(pid, ev.TID, "b", "mpi", ev.A, ev.TS, "")
		e.counter(pid, ev.TS, ev.B)
	case EvCmdComplete:
		if rm.spans[rank][ev.A]&spanHasDeq != 0 {
			args := ""
			if ev.Flow != 0 {
				args = fmt.Sprintf(`,"args":{"flow":%d}`, ev.Flow)
			}
			e.async(pid, ev.TID, "e", "mpi", ev.A, ev.TS, args)
		} else {
			st.OrphanSpanEnds++
		}
	case EvIssueEager, EvIssueRdv, EvIssueRecv, EvCTS, EvRdvFin, EvDeliver, EvEagerLand, EvRdvStart:
		e.instant(pid, ev.TID, ev.Kind.String(), ev.TS,
			fmt.Sprintf(`,"args":{"bytes":%d,"peer":%d%s}`, ev.A, ev.B, flowArg(ev.Flow)))
	case EvWatchdog:
		e.instant(pid, ev.TID, "watchdog", ev.TS,
			fmt.Sprintf(`,"args":{"peer":%d}`, ev.A))
	case EvConvert:
		e.instant(pid, ev.TID, "convert", ev.TS, "")
	default:
		e.instant(pid, ev.TID, "unknown", ev.TS, "")
	}
	if role := flowRole(ev); role != 0 {
		if rm.matched(ev.Flow) {
			e.flow(pid, ev.TID, role, ev.Flow, ev.TS)
		} else {
			st.FlowEventsDropped++
		}
	}
}

// Summary renders a compact text digest of a trace: one line per run with
// event totals, the headline per-layer counters, flow accounting and the
// queue-wait tail. Any rank that dropped events (ring wraparound) gets a
// loud per-rank WARNING line.
func Summary(tr *Trace) string {
	var sb strings.Builder
	for ri, run := range tr.Runs {
		var m RankMetrics
		for _, rec := range run.Ranks {
			m.Add(rec.Metrics())
		}
		fmt.Fprintf(&sb,
			"run %d [%s]: ranks=%d events=%d dropped=%d cmds=%d/%d/%d "+
				"duty(issue/progress/idle)=%d/%d/%d ns polls=%d conv=%d wd=%d "+
				"flows=%d/%d qwait(p50/p99)=%d/%d ns\n",
			ri, run.Label, len(run.Ranks), m.Events, m.EventsDropped,
			m.CmdEnq, m.CmdDeq, m.CmdDone,
			m.IssueNs, m.ProgressNs, m.IdleNs,
			m.TestanyPolls, m.Conversions, m.WatchdogTrips,
			m.FlowsSent, m.FlowsLanded, m.QueueWaitH.P50(), m.QueueWaitH.P99())
		for _, rec := range run.Ranks {
			rm := rec.Metrics()
			if rm.EventsDropped > 0 {
				fmt.Fprintf(&sb,
					"WARNING: run %d rank %d dropped %d events (ring wrapped; raise Options.RingCap)\n",
					ri, rm.Rank, rm.EventsDropped)
			}
		}
	}
	return sb.String()
}
