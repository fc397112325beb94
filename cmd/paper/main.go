// Command paper is the one experiment driver: every table and figure of
// the paper, the chaos sweep, every BENCH_*.json document and the check of
// the committed ones (-exp=gates) are rows of one experiment table
// (experiments.go), run by name.
//
//	paper                      list the experiments (same as -exp=list)
//	paper -exp=fig7a           one experiment; tables on stdout
//	paper -exp=all [-quick]    every experiment in table order, in process —
//	                           the run recorded in results.txt
//	paper -exp=gates           check every committed BENCH_*.json document:
//	                           structure plus the gates its sweep carries
//
// The flags are defined once and mean the same thing for every
// experiment. -profile, -approaches and -iters override an
// experiment's own defaults; -watchdog-us bounds every request in
// virtual time (its trips are a row of the -metrics table); -trace=FILE
// writes a Chrome trace_event JSON of every simulated run
// (chrome://tracing or Perfetto; its metadata carries each run's
// critical-path attribution), -critpath prints that attribution,
// -metrics one per-layer offload metrics table per approach.
//
// The document experiments (mtscale, net) write the committed
// BENCH_*.json name only at full size with no sweep-shaping flag; a
// reduced sweep (-quick or any override) goes to the temp directory unless
// -out names a path, so a quick run can never overwrite a committed gate.
//
// Under a cmd/mpirun launch (MPIOFFLOAD_* set) paper instead runs as one
// rank of a two-process ping-pong job (runWorker, measure.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/internal/transport"
	"mpioffload/sim"
)

// ctx is what every experiment runs against: where to print, the flag
// overrides, and the shared trace and watchdog wiring.
type ctx struct {
	w io.Writer

	quick      bool
	iters      int
	profile    string
	approaches []sim.Approach
	csv        bool
	out        string
	watchdogUs float64
	metrics    bool
	critPath   bool

	reduced   bool // -quick or a sweep-shaping override: documents go to temp
	trace     *obs.Trace
	traceFile string
}

// newCtx returns a context with the flag defaults.
func newCtx(w io.Writer) *ctx {
	return &ctx{w: w}
}

func main() {
	if cfg, ok := transport.EnvConfig(); ok {
		if err := runWorker(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "paper worker:", err)
			os.Exit(1)
		}
		return
	}
	c := newCtx(os.Stdout)
	exp := flag.String("exp", "list", "experiment to run: a name printed by -exp=list, or all")
	flag.BoolVar(&c.quick, "quick", false, "reduced sweeps and iteration counts")
	flag.IntVar(&c.iters, "iters", 0, "measured iterations (0 = the experiment's own)")
	flag.StringVar(&c.profile, "profile", "", "endeavor | phi | edison (default: the experiment's own)")
	approaches := flag.String("approaches", "", "comma-separated approach list (default: the experiment's own)")
	flag.BoolVar(&c.csv, "csv", false, "emit CSV instead of aligned text tables")
	flag.StringVar(&c.out, "out", "", "output path of a document experiment (default: the committed name at full size, a temp file otherwise)")
	flag.Float64Var(&c.watchdogUs, "watchdog-us", 0, "per-request watchdog deadline in virtual µs (0 = off; the chaos sweep defaults to 600)")
	flag.StringVar(&c.traceFile, "trace", "", "write a Chrome trace_event JSON of the simulated runs to FILE")
	flag.BoolVar(&c.metrics, "metrics", false, "print the per-layer offload metrics table per approach")
	flag.BoolVar(&c.critPath, "critpath", false, "print each traced run's critical-path attribution (needs -trace)")
	flag.Parse()

	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "exp", "csv", "out", "trace", "metrics", "critpath":
		default: // everything else, -quick included, shapes the sweep
			c.reduced = true
		}
	})
	if c.traceFile != "" {
		c.trace = obs.NewTrace(obs.Options{})
	}
	if err := c.drive(*exp, *approaches); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

// drive resolves the flags into the context and runs what was asked.
func (c *ctx) drive(exp, approaches string) error {
	var err error
	if c.approaches, err = parseApproaches(approaches); err != nil {
		return err
	}
	if c.profile != "" {
		if _, err := model.ByName(c.profile); err != nil {
			return err
		}
	}

	switch exp {
	case "list":
		for _, e := range experiments {
			fmt.Fprintf(c.w, "%-16s %s\n", e.name, e.heading)
		}
		return nil
	case "all":
		if c.out != "" {
			return fmt.Errorf("-out names one document; it cannot be combined with -exp=all")
		}
		if err := c.runAll(experiments); err != nil {
			return err
		}
	default:
		e := lookup(exp)
		if e == nil {
			return fmt.Errorf("unknown -exp=%s (see -exp=list)", exp)
		}
		if err := c.runOne(e); err != nil {
			return err
		}
	}
	return c.writeTrace()
}

// runAll runs the table in order under the step banners of results.txt.
func (c *ctx) runAll(table []experiment) error {
	start := time.Now()
	for i := range table {
		e := &table[i]
		fmt.Fprintf(c.w, "\n######## [%d/%d] %s ########\n", i+1, len(table), e.heading)
		t0 := time.Now()
		if err := c.runOne(e); err != nil {
			return fmt.Errorf("step %q failed: %w", e.heading, err)
		}
		fmt.Fprintf(c.w, "  (%.1fs)\n", time.Since(t0).Seconds())
	}
	fmt.Fprintf(c.w, "\nall %d experiments regenerated in %.1fs\n", len(table), time.Since(start).Seconds())
	return nil
}

// runOne runs one experiment and prints the per-experiment appendices the
// flags ask for: per-approach metrics.
func (c *ctx) runOne(e *experiment) error {
	if err := e.run(c); err != nil {
		return err
	}
	perApproach := bench.TakeMetricsPerApproach()
	if c.metrics {
		for _, am := range perApproach {
			c.emit(bench.MetricsTable(fmt.Sprintf("offload metrics [%s]", am.Approach), am.M))
		}
	}
	return nil
}

// writeTrace embeds the critical-path attribution in the trace, writes it
// as Chrome trace_event JSON and prints the digest.
func (c *ctx) writeTrace() error {
	if c.trace == nil {
		return nil
	}
	reports := critpath.Analyze(c.trace)
	c.trace.AddMeta("critpath", critpath.MetaJSON(reports))
	f, err := os.Create(c.traceFile)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, c.trace); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprint(c.w, obs.Summary(c.trace))
	if c.critPath {
		for _, rep := range reports {
			fmt.Fprint(c.w, rep.Table())
		}
	}
	fmt.Fprintf(c.w, "trace written to %s (open in chrome://tracing or Perfetto)\n", c.traceFile)
	return nil
}

// ---- what experiments ask the context for ----

// n resolves an iteration count: -iters wins, then the quick size, then
// the full size.
func (c *ctx) n(full, quick int) int {
	switch {
	case c.iters > 0:
		return c.iters
	case c.quick:
		return quick
	}
	return full
}

// profs returns fresh copies of the experiment's platform profiles — or
// of the one -profile names.
func (c *ctx) profs(defaults ...string) []*model.Profile {
	if c.profile != "" {
		defaults = []string{c.profile}
	}
	out := make([]*model.Profile, len(defaults))
	for i, name := range defaults {
		p, err := model.ByName(name)
		if err != nil {
			panic(err) // -profile was checked in drive; defaults are literals
		}
		out[i] = p
	}
	return out
}

func (c *ctx) prof(def string) *model.Profile { return c.profs(def)[0] }

// apps returns the approaches to compare: -approaches, else the
// experiment's own.
func (c *ctx) apps(defaults ...sim.Approach) []sim.Approach {
	if len(c.approaches) > 0 {
		return c.approaches
	}
	return defaults
}

// cfg builds a simulation config carrying the shared watchdog and trace
// wiring.
func (c *ctx) cfg(a sim.Approach, p *model.Profile) sim.Config {
	return sim.Config{Approach: a, Profile: p, Watchdog: c.watchdogUs * 1000, Trace: c.trace}
}

func (c *ctx) emit(t *bench.Table) {
	if c.csv {
		t.CSV(c.w)
	} else {
		t.Print(c.w)
	}
}

// docPath is where a document experiment writes: -out if given, the
// committed name for the untouched full-size sweep, a temp file otherwise.
func (c *ctx) docPath(committed string) string {
	switch {
	case c.out != "":
		return c.out
	case c.reduced:
		return filepath.Join(os.TempDir(), strings.TrimSuffix(committed, ".json")+"_reduced.json")
	}
	return committed
}

// writeDoc validates and writes a generated document.
func (c *ctx) writeDoc(committed string, d bench.Doc) error {
	path := c.docPath(committed)
	if err := bench.WriteDoc(path, d); err != nil {
		return err
	}
	fmt.Fprintf(c.w, "wrote %s\n", path)
	return nil
}

func parseApproaches(s string) ([]sim.Approach, error) {
	if s == "" {
		return nil, nil
	}
	var out []sim.Approach
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		a := sim.Baseline
		for a <= sim.CoreSpec && a.String() != name {
			a++
		}
		if a > sim.CoreSpec {
			return nil, fmt.Errorf("unknown approach %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
