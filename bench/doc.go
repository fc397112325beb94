package bench

// The BENCH_*.json document model. Every committed benchmark document is
// one of the report types below; each knows how to validate itself
// (structure plus the gates its sweep carries) and how to flatten itself
// into the named metrics cmd/benchdiff compares across generations. The
// Docs registry, keyed by the "schema" tag, is the only place that maps a
// tag to a type: LoadDoc and WriteDoc are the one way in and the one way
// out, so the generators and the gates check (cmd/paper) and the differ
// cannot drift apart.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Class selects a metric's tolerance band and gating rule in a diff.
type Class string

const (
	Virtual Class = "virtual" // deterministic virtual-time result; tight band
	Wall    Class = "wall"    // wall-clock measurement; wide band
	Info    Class = "info"    // reported, never gates (batch sizes, residual ratios)
)

// Direction says which way is an improvement.
type Direction int

const (
	LowerBetter Direction = iota
	HigherBetter
)

// Metric is one named measurement of a document.
type Metric struct {
	Key   string
	Val   float64
	Class Class
	Dir   Direction
}

// Doc is a benchmark document: a report that names its schema, checks
// its own structure and gates, and flattens to metrics.
type Doc interface {
	Tag() string
	Validate() error
	Metrics() []Metric
}

// DocKind is one registry entry: a schema tag, the committed file that
// carries the full-size sweep, and a constructor for decoding.
type DocKind struct {
	Schema string
	File   string
	New    func() Doc
}

// Docs is the schema registry, in the order the documents are generated.
var Docs = []DocKind{
	{MTScaleSchema, "BENCH_mtscale.json", func() Doc { return new(MTScaleReport) }},
	{NetSchema, "BENCH_net.json", func() Doc { return new(NetReport) }},
}

// LoadDoc reads a benchmark document, decoding it into the report type
// its schema tag names. It does not validate (a differ must be able to
// load a regressed generation to say what regressed) beyond refusing a
// document that flattens to no metrics at all.
func LoadDoc(path string) (Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var known []string
	for _, k := range Docs {
		if k.Schema == head.Schema {
			d := k.New()
			if err := json.Unmarshal(data, d); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if len(d.Metrics()) == 0 {
				return nil, fmt.Errorf("%s: no metrics in document", path)
			}
			return d, nil
		}
		known = append(known, k.Schema)
	}
	return nil, fmt.Errorf("%s: unknown schema %q (want one of %s)", path, head.Schema, strings.Join(known, ", "))
}

// WriteDoc validates a document and writes it as indented JSON with a
// trailing newline — the byte format of the committed files.
func WriteDoc(path string, d Doc) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metricList accumulates a document's flattened metrics.
type metricList []Metric

func (l *metricList) add(class Class, dir Direction, val float64, format string, args ...any) {
	*l = append(*l, Metric{Key: fmt.Sprintf(format, args...), Val: val, Class: class, Dir: dir})
}

// GateThreads is the thread count whose rows carry the wall-clock perf
// gates of mtscale/v3 and net/v1: the saturated end of the sweep.
// Documents without such rows (quick sweeps) get structural validation
// only.
const GateThreads = 16

// ---- mtscale/v3 ----

// MTScaleSchema versions BENCH_mtscale.json; bump on incompatible change.
// v3 drops v2's threads × agents grid: the offload engine runs one agent
// per rank.
const MTScaleSchema = "mtscale/v3"

// RTScaleRow is one thread count of the wall-clock sweep: mean ns an
// application goroutine spends inside Isend, posting through a private
// shard (RegisterThread) versus through the shared MPMC overflow (plain
// Rank calls — the pre-sharding command queue).
type RTScaleRow struct {
	Threads          int     `json:"threads"`
	ShardedNsPerPost float64 `json:"sharded_ns_per_post"`
	SharedNsPerPost  float64 `json:"shared_ns_per_post"`
}

// MTScaleReport is the BENCH_mtscale.json document.
type MTScaleReport struct {
	Schema  string          `json:"schema"`
	Profile string          `json:"profile"`
	Sim     []MTScaleResult `json:"sim"`
	RT      []RTScaleRow    `json:"rt"`
}

func (r *MTScaleReport) Tag() string { return r.Schema }

// Validate checks the report's structure — schema tag, non-empty sweeps,
// ascending axes, positive measurements — and, on documents that reach
// the saturated GateThreads row, the perf gate: the sharded wall-clock
// post must not be slower than the shared-MPMC post.
func (r *MTScaleReport) Validate() error {
	if r.Schema != MTScaleSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, MTScaleSchema)
	}
	if r.Profile == "" {
		return fmt.Errorf("missing profile")
	}
	if len(r.Sim) == 0 || len(r.RT) == 0 {
		return fmt.Errorf("empty sweep: %d sim rows, %d rt rows", len(r.Sim), len(r.RT))
	}
	if !sort.SliceIsSorted(r.Sim, func(i, j int) bool { return r.Sim[i].Threads < r.Sim[j].Threads }) {
		return fmt.Errorf("sim thread counts not ascending")
	}
	if !sort.SliceIsSorted(r.RT, func(i, j int) bool { return r.RT[i].Threads < r.RT[j].Threads }) {
		return fmt.Errorf("rt thread counts not ascending")
	}
	for _, s := range r.Sim {
		if s.Threads < 1 || s.PostNs <= 0 || s.MeanBatch < 1 {
			return fmt.Errorf("bad sim row %+v", s)
		}
	}
	for _, w := range r.RT {
		if w.Threads < 1 || w.ShardedNsPerPost <= 0 || w.SharedNsPerPost <= 0 {
			return fmt.Errorf("bad rt row %+v", w)
		}
		if w.Threads == GateThreads && w.ShardedNsPerPost > w.SharedNsPerPost {
			return fmt.Errorf("perf gate: sharded post %.0f ns > shared %.0f ns at %d threads",
				w.ShardedNsPerPost, w.SharedNsPerPost, GateThreads)
		}
	}
	return nil
}

func (r *MTScaleReport) Metrics() []Metric {
	var l metricList
	for _, s := range r.Sim {
		l.add(Virtual, LowerBetter, s.PostNs, "sim.post_ns{threads=%d}", s.Threads)
		l.add(Info, HigherBetter, s.MeanBatch, "sim.mean_batch{threads=%d}", s.Threads)
	}
	for _, w := range r.RT {
		l.add(Wall, LowerBetter, w.ShardedNsPerPost, "rt.sharded_ns_per_post{threads=%d}", w.Threads)
		l.add(Wall, LowerBetter, w.SharedNsPerPost, "rt.shared_ns_per_post{threads=%d}", w.Threads)
	}
	return l
}

// ---- net/v1 ----

// NetSchema versions BENCH_net.json; bump on incompatible change. v1
// records, per transport backend, the wall-clock ping-pong latency sweep
// and the multithreaded message-rate sweep (Direct global-lock baseline
// vs Offload), plus the sim-vs-real residual rows that anchor the
// simulator's virtual-time predictions against real sockets.
const NetSchema = "net/v1"

// PingPongRow is one message size of a backend's latency sweep: mean
// one-way wall-clock latency of a single-threaded blocking ping-pong.
type PingPongRow struct {
	Size      int     `json:"size"`
	LatencyNs float64 `json:"latency_ns"`
}

// RateRow is one thread count of a backend's message-rate sweep: total
// 64-byte messages per second moved by `threads` flooding submitters,
// under the Direct (global lock, MPI_THREAD_MULTIPLE) and Offload
// (command queue + agent) modes.
type RateRow struct {
	Threads        int     `json:"threads"`
	DirectMsgsSec  float64 `json:"direct_msgs_per_sec"`
	OffloadMsgsSec float64 `json:"offload_msgs_per_sec"`
}

// NetBackend is one transport backend's measurements.
type NetBackend struct {
	Backend  string        `json:"backend"` // loopback | unix
	PingPong []PingPongRow `json:"pingpong"`
	Rate     []RateRow     `json:"rate"`
}

// NetResidual compares one microbenchmark across the simulator (virtual
// ns on the modeled Endeavor fabric) and a real backend (wall-clock ns on
// this host's sockets). Ratio = real/sim: the residual between what the
// model predicts for its hardware and what the localhost wire delivers.
type NetResidual struct {
	Bench   string  `json:"bench"`
	Backend string  `json:"backend"`
	SimNs   float64 `json:"sim_ns"`
	RealNs  float64 `json:"real_ns"`
	Ratio   float64 `json:"ratio"`
}

// NetReport is the BENCH_net.json document.
type NetReport struct {
	Schema    string        `json:"schema"`
	Backends  []NetBackend  `json:"backends"`
	Residuals []NetResidual `json:"residuals"`
}

func (r *NetReport) Tag() string { return r.Schema }

// Validate checks the report's structure — schema tag, non-empty sweeps,
// ascending axes, positive measurements — and, on documents that reach
// the saturated GateThreads rows, the perf gate: offload throughput must
// not fall below the global-lock baseline.
func (r *NetReport) Validate() error {
	if r.Schema != NetSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, NetSchema)
	}
	if len(r.Backends) == 0 {
		return fmt.Errorf("no backends")
	}
	gated := false
	for _, b := range r.Backends {
		if b.Backend == "" {
			return fmt.Errorf("backend with empty name")
		}
		if len(b.PingPong) == 0 || len(b.Rate) == 0 {
			return fmt.Errorf("%s: empty sweep: %d pingpong rows, %d rate rows",
				b.Backend, len(b.PingPong), len(b.Rate))
		}
		if !sort.SliceIsSorted(b.PingPong, func(i, j int) bool { return b.PingPong[i].Size < b.PingPong[j].Size }) {
			return fmt.Errorf("%s: pingpong sizes not ascending", b.Backend)
		}
		if !sort.SliceIsSorted(b.Rate, func(i, j int) bool { return b.Rate[i].Threads < b.Rate[j].Threads }) {
			return fmt.Errorf("%s: rate thread counts not ascending", b.Backend)
		}
		for _, p := range b.PingPong {
			if p.Size < 1 || p.LatencyNs <= 0 {
				return fmt.Errorf("%s: bad pingpong row %+v", b.Backend, p)
			}
		}
		for _, w := range b.Rate {
			if w.Threads < 1 || w.DirectMsgsSec <= 0 || w.OffloadMsgsSec <= 0 {
				return fmt.Errorf("%s: bad rate row %+v", b.Backend, w)
			}
			if w.Threads == GateThreads {
				gated = true
				if w.OffloadMsgsSec < w.DirectMsgsSec {
					return fmt.Errorf("perf gate: %s offload %.0f msgs/s < direct %.0f at %d threads",
						b.Backend, w.OffloadMsgsSec, w.DirectMsgsSec, GateThreads)
				}
			}
		}
	}
	if gated && len(r.Residuals) == 0 {
		return fmt.Errorf("full-size document has no sim-vs-real residuals")
	}
	for _, res := range r.Residuals {
		if res.Bench == "" || res.Backend == "" || res.SimNs <= 0 || res.RealNs <= 0 || res.Ratio <= 0 {
			return fmt.Errorf("bad residual row %+v", res)
		}
		if math.Abs(res.Ratio-res.RealNs/res.SimNs) > 1e-6*res.Ratio {
			return fmt.Errorf("residual %s/%s: ratio %.4f != real/sim %.4f",
				res.Bench, res.Backend, res.Ratio, res.RealNs/res.SimNs)
		}
	}
	return nil
}

// Metrics: everything in a net/v1 document is wall clock from real
// sockets, so all gating rows use the wide band; the sim-vs-real residual
// ratios are informational — they document the gap between modeled and
// local hardware, not a quantity with a "right" direction.
func (r *NetReport) Metrics() []Metric {
	var l metricList
	for _, b := range r.Backends {
		for _, p := range b.PingPong {
			l.add(Wall, LowerBetter, p.LatencyNs, "net.pingpong_ns{backend=%s,size=%d}", b.Backend, p.Size)
		}
		for _, w := range b.Rate {
			l.add(Wall, HigherBetter, w.DirectMsgsSec, "net.direct_msgs_per_sec{backend=%s,threads=%d}", b.Backend, w.Threads)
			l.add(Wall, HigherBetter, w.OffloadMsgsSec, "net.offload_msgs_per_sec{backend=%s,threads=%d}", b.Backend, w.Threads)
		}
	}
	for _, res := range r.Residuals {
		l.add(Info, LowerBetter, res.Ratio, "net.residual_ratio{bench=%s,backend=%s}", res.Bench, res.Backend)
	}
	return l
}
