// Package critpath extracts the critical path of a traced run: the
// backward happens-before chain from the run's end to virtual time zero,
// with every nanosecond attributed to one of six categories — compute,
// queue-wait, offload service, network, idle/progress-gap, recovery.
//
// The happens-before DAG comes from two edge families the observability
// layer records: command-lifecycle edges (cmd.enqueue → cmd.dequeue →
// cmd.complete, linked by command id within a rank) and causal flow edges
// (issue → delivery → CTS/RDMA-start/FIN → landing, linked by flow id
// across ranks). The walk starts at the last rank to finish and repeatedly
// asks "which event enabled the point I am standing on?": a dequeue is
// enabled by its enqueue (the gap is queue-wait), a completion by the
// later of its dequeue and its flow's landing (offload service), a flow
// event by its chain predecessor (network when the hop crosses ranks,
// progress-gap when a delivered packet waited for a local progress call),
// and anything else by the previous event on its own rank (the gap charged
// to the standing event's thread class: app = compute, agent = offload
// service, NIC = progress-gap).
//
// Determinism: ranks are scanned in index order, per-rank events in ring
// (chronological) order, flow chains are sorted by (timestamp, collection
// order) with a stable sort, and no Go map is ever iterated — so the same
// trace always yields byte-identical reports. The attribution telescopes:
// every step charges exactly the time between two walk points, so the
// category sums equal the run's elapsed virtual time to the nanosecond.
package critpath

import (
	"fmt"
	"sort"
	"strings"

	"mpioffload/internal/obs"
)

// Category of critical-path time.
type Category int

// The six attribution categories.
const (
	Compute     Category = iota // application-thread time between events
	QueueWait                   // cmd.enqueue → cmd.dequeue
	Service                     // offload-thread servicing (dequeue → issue → complete)
	Network                     // wire hops between flow events on different ranks
	ProgressGap                 // delivered data waiting for a progress call; NIC gaps
	Recovery                    // watchdog diagnosis: the wait before a request is failed
	NumCategories
)

// String names the category as printed in tables and metadata.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case QueueWait:
		return "queue-wait"
	case Service:
		return "offload service"
	case Network:
		return "network"
	case ProgressGap:
		return "idle/progress-gap"
	case Recovery:
		return "recovery"
	}
	return "?"
}

// metaKey is the category's JSON field name in the embedded metadata.
func (c Category) metaKey() string {
	switch c {
	case Compute:
		return "compute_ns"
	case QueueWait:
		return "queue_wait_ns"
	case Service:
		return "service_ns"
	case Network:
		return "network_ns"
	case ProgressGap:
		return "progress_gap_ns"
	case Recovery:
		return "recovery_ns"
	}
	return "?"
}

// RunData is the analyzer's neutral input: one run's end-of-time anchors
// plus per-rank chronological events, built from an obs.RunTrace in
// memory (Analyze).
type RunData struct {
	Label   string
	Elapsed int64   // total virtual time of the run
	RankEnd []int64 // per-rank finish times
	Events  [][]obs.Event
}

// Report is the critical path of one run, attributed by category.
type Report struct {
	Label    string
	Total    int64 // the run's elapsed virtual time (== Sum())
	EndRank  int   // rank the backward walk started from
	Segments int   // walk steps taken
	Ns       [NumCategories]int64
}

// Sum returns the total attributed time; it equals Total by construction.
func (r *Report) Sum() int64 {
	var s int64
	for _, v := range r.Ns {
		s += v
	}
	return s
}

// Table renders the report as a fixed-format text table.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical path [%s]: total %d ns (end rank %d, %d segments)\n",
		r.Label, r.Total, r.EndRank, r.Segments)
	for c := Category(0); c < NumCategories; c++ {
		pct := 0.0
		if r.Total > 0 {
			pct = 100 * float64(r.Ns[c]) / float64(r.Total)
		}
		fmt.Fprintf(&sb, "  %-18s %14d ns %6.1f%%\n", c.String(), r.Ns[c], pct)
	}
	return sb.String()
}

// MetaJSON renders the report as a deterministic JSON object (embedded in
// the Chrome export's metadata block).
func (r *Report) MetaJSON() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"label":%q,"total_ns":%d,"end_rank":%d,"segments":%d`,
		r.Label, r.Total, r.EndRank, r.Segments)
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&sb, `,%q:%d`, c.metaKey(), r.Ns[c])
	}
	sb.WriteString("}")
	return []byte(sb.String())
}

// MetaJSON renders one JSON array with every report (for Trace.AddMeta).
func MetaJSON(reports []*Report) []byte {
	var sb strings.Builder
	sb.WriteString("[")
	for i, r := range reports {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.Write(r.MetaJSON())
	}
	sb.WriteString("]")
	return []byte(sb.String())
}

// Analyze extracts the critical path of every run in the trace.
func Analyze(tr *obs.Trace) []*Report {
	reports := make([]*Report, 0, len(tr.Runs))
	for _, run := range tr.Runs {
		rd := RunData{
			Label:   run.Label,
			Elapsed: run.ElapsedNs,
			RankEnd: run.RankEndNs,
			Events:  make([][]obs.Event, len(run.Ranks)),
		}
		for r, rec := range run.Ranks {
			rd.Events[r] = rec.Events()
		}
		reports = append(reports, AnalyzeRun(rd))
	}
	return reports
}

// node addresses one event in a RunData.
type node struct {
	rank int
	idx  int
}

// analyzer holds the walk's indices over one run.
type analyzer struct {
	rd RunData
	// cmdEnq/cmdDeq: per rank, command id → event index.
	cmdEnq []map[int64]int
	cmdDeq []map[int64]int
	// chains: flow id → chain nodes sorted by (TS, collection order);
	// chainPos: encoded node → its position in its flow's chain.
	chains   map[int64][]node
	chainPos map[node]int
	// avail[r] is the highest not-yet-consumed event index on rank r; the
	// walk only moves it down, which bounds it and guarantees termination.
	avail []int
}

func (a *analyzer) ev(n node) obs.Event { return a.rd.Events[n.rank][n.idx] }

// chainKind reports whether the event participates in its flow's chain.
func chainKind(k obs.Kind) bool {
	switch k {
	case obs.EvIssueEager, obs.EvIssueRdv, obs.EvIssueRecv,
		obs.EvDeliver, obs.EvCTS, obs.EvRdvStart, obs.EvRdvFin, obs.EvEagerLand:
		return true
	}
	return false
}

// AnalyzeRun extracts the critical path of one run.
func AnalyzeRun(rd RunData) *Report {
	a := &analyzer{
		rd:       rd,
		cmdEnq:   make([]map[int64]int, len(rd.Events)),
		cmdDeq:   make([]map[int64]int, len(rd.Events)),
		chains:   make(map[int64][]node),
		chainPos: make(map[node]int),
		avail:    make([]int, len(rd.Events)),
	}
	for r, evs := range rd.Events {
		a.cmdEnq[r] = make(map[int64]int)
		a.cmdDeq[r] = make(map[int64]int)
		a.avail[r] = len(evs) - 1
		for i, ev := range evs {
			switch ev.Kind {
			case obs.EvCmdEnqueue:
				a.cmdEnq[r][ev.A] = i
			case obs.EvCmdDequeue:
				a.cmdDeq[r][ev.A] = i
			}
			if ev.Flow != 0 && chainKind(ev.Kind) {
				a.chains[ev.Flow] = append(a.chains[ev.Flow], node{r, i})
			}
		}
	}
	// Chains were collected rank-major; order them causally. The sort is
	// stable, so equal timestamps keep rank order — deterministic.
	for flow, chain := range a.chains {
		sort.SliceStable(chain, func(i, j int) bool {
			return a.ev(chain[i]).TS < a.ev(chain[j]).TS
		})
		for pos, n := range chain {
			a.chainPos[n] = pos
		}
		a.chains[flow] = chain
	}

	rep := &Report{Label: rd.Label, Total: rd.Elapsed}
	for r, end := range rd.RankEnd {
		if end > rd.RankEnd[rep.EndRank] {
			rep.EndRank = r
		}
	}
	a.walk(rep)
	return rep
}

// ctxCat is the category of a generic (same-rank) gap, by the thread
// class and kind of the event the walk stands on: a watchdog trip pins the
// context to Recovery, anything else attributes by thread class.
func ctxCat(tid uint8, kind obs.Kind) Category {
	if kind == obs.EvWatchdog {
		return Recovery
	}
	switch tid {
	case obs.TApp:
		return Compute
	case obs.TAgent:
		return Service
	}
	return ProgressGap
}

// usable reports whether the node can be consumed at walk time T.
func (a *analyzer) usable(n node, T int64) bool {
	return n.idx <= a.avail[n.rank] && a.ev(n).TS <= T
}

// dependency finds the specific happens-before predecessor of the event at
// cur, if one is recorded and still consumable.
func (a *analyzer) dependency(cur node, T int64) (node, Category, bool) {
	ev := a.ev(cur)
	switch ev.Kind {
	case obs.EvCmdDequeue:
		if i, ok := a.cmdEnq[cur.rank][ev.A]; ok {
			n := node{cur.rank, i}
			if a.usable(n, T) {
				return n, QueueWait, true
			}
		}
	case obs.EvCmdComplete:
		// A completion is enabled by the later of the command's dequeue and
		// its flow's most recent same-rank chain event (the landing or the
		// inline issue). Both gaps are offload servicing.
		best, found := node{}, false
		if ev.Flow != 0 {
			chain := a.chains[ev.Flow]
			for i := len(chain) - 1; i >= 0; i-- {
				n := chain[i]
				if n.rank == cur.rank && a.usable(n, T) {
					best, found = n, true
					break
				}
			}
		}
		if i, ok := a.cmdDeq[cur.rank][ev.A]; ok {
			n := node{cur.rank, i}
			if a.usable(n, T) && (!found || a.ev(n).TS > a.ev(best).TS) {
				best, found = n, true
			}
		}
		if found {
			return best, Service, true
		}
	default:
		if ev.Flow != 0 && chainKind(ev.Kind) {
			if pos, ok := a.chainPos[cur]; ok && pos > 0 {
				n := a.chains[ev.Flow][pos-1]
				if a.usable(n, T) {
					cat := Network
					if n.rank == cur.rank {
						// Same-rank hop: a delivered packet waited in the
						// inbox for a progress call.
						cat = ProgressGap
					}
					return n, cat, true
				}
			}
		}
	}
	return node{}, 0, false
}

// walk performs the backward pass, attributing [0, Elapsed] exactly.
func (a *analyzer) walk(rep *Report) {
	if len(a.rd.Events) == 0 {
		if a.rd.Elapsed > 0 {
			rep.Ns[Compute] += a.rd.Elapsed
			rep.Segments++
		}
		return
	}
	T := a.rd.Elapsed
	cur := node{rank: rep.EndRank, idx: -1}
	tid := obs.TApp // walk context before the first event is the app thread
	var kind obs.Kind
	for T > 0 {
		var next node
		var cat Category
		found := false
		if cur.idx >= 0 {
			next, cat, found = a.dependency(cur, T)
		}
		if !found {
			// Generic step: the latest unconsumed event on this rank.
			i := a.avail[cur.rank]
			for i >= 0 && a.ev(node{cur.rank, i}).TS > T {
				i--
			}
			if i < 0 {
				// Nothing earlier on this rank: the remainder is the rank's
				// lead-in, charged to the standing context.
				rep.Ns[ctxCat(tid, kind)] += T
				rep.Segments++
				return
			}
			next, cat = node{cur.rank, i}, ctxCat(tid, kind)
		}
		nts := a.ev(next).TS
		rep.Ns[cat] += T - nts
		rep.Segments++
		T = nts
		a.avail[next.rank] = next.idx - 1
		cur = next
		tid = a.ev(next).TID
		kind = a.ev(next).Kind
	}
}
