// Command benchmark is the one host-time instrument of this repository:
// six workloads, end-to-end metrics with regression bounds, and a traced
// pass that gives a per-layer budget. README.md explains every choice.
//
//	go run ./benchmark                       every workload, end-to-end pass
//	go run ./benchmark -workload W -seed N   one workload in this process
//	go run ./benchmark -trace 1              per-layer pass, Chrome trace, budget
//	go run ./benchmark -sets 2               run twice, compare against the bounds
//
// The driver's form is `bash benchmark/run.sh --workload W --seed N
// --seconds S --trace 0|1`; the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scratch holds everything a run writes: socket rendezvous directories and
// Chrome traces. Relative on purpose: Unix socket paths are limited to 108
// bytes and a checkout may sit anywhere.
const scratch = ".bench_build"

// runConfig is what one workload run is told.
type runConfig struct {
	seed         int64
	seconds      float64
	trace        bool
	traceFile    string
	updateGolden bool
	tiny         bool // smoke-test sizes
	log          io.Writer
}

// result is what one workload run reports.
type result struct {
	attempted, failed int64
	problems          []string             // why correct is false
	samples           map[string][]float64 // end-to-end: one value per repetition
	layer             map[string]float64   // per-layer: one value each
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, layer: map[string]float64{}}
}

func (r *result) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repeat runs rep at least three times, and then for as long as one more
// repetition of the mean length so far fits into seconds.
func repeat(seconds float64, rep func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := rep(); err != nil {
			return err
		}
		spent := time.Since(start).Seconds()
		if n >= 3 && spent+spent/float64(n) > seconds {
			return nil
		}
	}
}

// percentile returns the q-quantile (nearest rank) of v, sorting v.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(q * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runWorkload runs one workload in this process and builds its report.
func runWorkload(w *workloadSpec, cfg runConfig) (report, error) {
	res, err := w.run(cfg, w.Name)
	if err != nil {
		return report{}, err
	}
	rep := report{
		Correct:   res.failed == 0 && len(res.problems) == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, p := range res.problems {
		fmt.Fprintf(cfg.log, "benchmark: %s: %s\n", w.Name, p)
	}
	if cfg.trace {
		for _, m := range perLayer {
			rep.Metrics[m.Name] = metricValue{res.layer[m.Name], m.Unit}
		}
		return rep, nil
	}
	res.sample("peak_rss_mb", peakRSSMB())
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = metricValue{median(res.samples[m.Name]), m.Unit}
		fmt.Fprintf(cfg.log, "  %-12s n=%d\n", m.Name, len(res.samples[m.Name]))
	}
	return rep, nil
}

// printReport writes the human-readable table and then the JSON line.
func printReport(out io.Writer, w *workloadSpec, cfg runConfig, rep report) error {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	fmt.Fprintf(out, "workload %s  seed %d  nproc %d  %s\n", w.Name, cfg.seed, runtime.NumCPU(), runtime.Version())
	for _, m := range specs {
		bound := ""
		if !cfg.trace {
			bound = fmt.Sprintf("  bound %.0f %%", 100*m.Bound)
		}
		fmt.Fprintf(out, "  %-34s %16.6g %-6s %s is better%s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit, m.Better, bound)
	}
	fmt.Fprintf(out, "  operations attempted %d  failed %d  correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runChild runs one workload in a child process, so that VmHWM is the
// workload's own, and decodes the report from its last line.
func runChild(name string, cfg runConfig, echo io.Writer) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace}
	if cfg.updateGolden {
		args = append(args, "-update-golden")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("workload %s: last line is not a report: %w", name, err)
	}
	if echo != nil {
		fmt.Fprintln(echo, strings.Join(lines[:len(lines)-1], "\n"))
	}
	return rep, nil
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: each in a child process)")
	seed := flag.Int64("seed", defaultSeed, "input seed: rt payload contents, sim link-jitter stream")
	seconds := flag.Float64("seconds", runSeconds, "length of the measuring phase")
	trace := flag.String("trace", "0", "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics and budget")
	traceFile := flag.String("trace-file", "", "Chrome trace_event output of the traced pass (default "+scratch+"/trace-<workload>.json)")
	sets := flag.Int("sets", 1, "run the end-to-end pass this many times and compare the sets against the bounds")
	updateGolden := flag.Bool("update-golden", false, "rewrite testdata/golden.json from this run (sim workloads, default seed)")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	printDescribe := flag.Bool("describe", false, "print the metric table and exit")
	flag.Parse()

	switch {
	case *printManifest:
		b, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	case *printDescribe:
		describe(os.Stdout)
		return
	}
	if *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace wants 0 or 1, got %q", *trace))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == "1", traceFile: *traceFile,
		updateGolden: *updateGolden, log: os.Stderr}

	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		// Socket meshes rendezvous under os.TempDir: keep that inside the
		// checkout, and short.
		tmp := filepath.Join(scratch, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			fatal(err)
		}
		os.Setenv("TMPDIR", tmp)
		if cfg.trace && cfg.traceFile == "" {
			cfg.traceFile = filepath.Join(scratch, "trace-"+w.Name+".json")
		}
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		if err := printReport(os.Stdout, w, cfg, rep); err != nil {
			fatal(err)
		}
		return
	}

	if *sets > 1 {
		if cfg.trace {
			fatal(fmt.Errorf("-sets compares end-to-end passes; leave -trace at 0"))
		}
		if !compareSets(os.Stdout, *sets, cfg) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, w := range workloads {
		rep, err := runChild(w.Name, cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
