package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/sim"
)

var (
	stepBanner = regexp.MustCompile(`^######## \[\d+/\d+\] (.*) ########$`)
	stepTiming = regexp.MustCompile(`^  \(\d+\.\ds\)$`)
)

// resultsSections splits results.txt into its steps: heading → the lines
// between the banner and the "(N.Ns)" timing line.
func resultsSections(t *testing.T) (headings []string, body map[string]string) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	body = make(map[string]string)
	cur := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		trimmed := strings.TrimSuffix(line, "\n")
		if m := stepBanner.FindStringSubmatch(trimmed); m != nil {
			cur = m[1]
			headings = append(headings, cur)
		} else if stepTiming.MatchString(trimmed) {
			cur = ""
		} else if cur != "" {
			body[cur] += line
		}
	}
	return headings, body
}

// TestResultsTxtIsReproduced makes results.txt a checked artifact: virtual
// time is deterministic, so the sub-second figures, plus Fig 14 (the one
// figure that runs the phantom allreduce) and the chaos sweep, run through
// the experiment table with -quick as results.txt was recorded, must print
// their recorded sections byte for byte. Fig 14 runs once more on a single
// OS thread: the output must not depend on how the Go scheduler interleaves
// the simulation's goroutines.
func TestResultsTxtIsReproduced(t *testing.T) {
	_, recorded := resultsSections(t)
	check := func(t *testing.T, name string) {
		e := lookup(name)
		if e == nil {
			t.Fatalf("experiment %s missing from the table", name)
		}
		var out bytes.Buffer
		c := newCtx(&out)
		c.quick = true
		if err := c.runOne(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, ok := recorded[e.heading]; !ok {
			t.Errorf("results.txt has no step %q", e.heading)
		} else if out.String() != want {
			t.Errorf("%s differs from its results.txt section\n--- got ---\n%s--- recorded ---\n%s", name, out.String(), want)
		}
	}
	for _, name := range []string{"fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6",
		"fig7a", "fig8a", "table1", "fig10", "table2", "fig14", "chaos"} {
		check(t, name)
	}
	t.Run("fig14_GOMAXPROCS_1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t, "fig14")
	})
}

// TestTableCoversTheRecord: the experiment table, results.txt and
// EXPERIMENTS.md name the same experiments — every recorded step is a
// table heading in table order, and the write-up cites every -exp name and
// no name the table lacks.
func TestTableCoversTheRecord(t *testing.T) {
	headings, _ := resultsSections(t)
	if len(headings) != len(experiments) {
		t.Errorf("results.txt records %d steps, the table has %d experiments", len(headings), len(experiments))
	}
	for i, h := range headings {
		if i < len(experiments) && experiments[i].heading != h {
			t.Errorf("results.txt step %d is %q, table row %d is %q", i+1, h, i+1, experiments[i].heading)
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, m := range regexp.MustCompile(`-exp=([a-z0-9-]+)`).FindAllStringSubmatch(string(doc), -1) {
		cited[m[1]] = true
		if m[1] != "all" && m[1] != "list" && lookup(m[1]) == nil {
			t.Errorf("EXPERIMENTS.md cites -exp=%s, which the table lacks", m[1])
		}
	}
	for _, e := range experiments {
		if !cited[e.name] {
			t.Errorf("EXPERIMENTS.md never cites -exp=%s", e.name)
		}
	}
}

// TestQuickSweepsLeaveCommittedGates runs -exp=all -quick with the
// figures stubbed out: the two document sweeps must write to the temp
// directory, never to the committed BENCH_*.json names, and what they
// write must pass the same validators and carry the end-to-end evidence
// the gates stand on.
func TestQuickSweepsLeaveCommittedGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick mtscale, chaos and net sweeps (wall-clock rt runs, ~1 s)")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	wd, _ := os.Getwd()
	if err := os.Chdir(root); err != nil { // committed names are relative to the repo root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)

	before := make(map[string][]byte)
	for _, k := range bench.Docs {
		if before[k.File], err = os.ReadFile(k.File); err != nil {
			t.Fatal(err)
		}
	}
	table := append([]experiment(nil), experiments...)
	for i := range table {
		if strings.HasPrefix(table[i].name, "fig") || strings.HasPrefix(table[i].name, "table") {
			table[i].run = func(*ctx) error { return nil }
		}
	}
	var out bytes.Buffer
	c := newCtx(&out)
	c.quick, c.reduced = true, true
	if err := c.runAll(table); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, k := range bench.Docs {
		if after, _ := os.ReadFile(k.File); !bytes.Equal(after, before[k.File]) {
			t.Errorf("quick sweep rewrote the committed %s", k.File)
		}
	}

	load := func(committed string) bench.Doc {
		d, err := bench.LoadDoc(c.docPath(committed))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Dir(c.docPath(committed)) != tmp {
			t.Fatalf("quick %s went to %s, not the temp directory", committed, c.docPath(committed))
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("quick %s: %v", committed, err)
		}
		return d
	}
	// The sim post cost must be flat at EnqueueCost regardless of thread
	// count — that is the sharded queue's whole claim in virtual time.
	for _, r := range load("BENCH_mtscale.json").(*bench.MTScaleReport).Sim {
		if want := model.Endeavor().EnqueueCost; r.PostNs != want {
			t.Errorf("sim post at %d threads = %v ns, want flat %v", r.Threads, r.PostNs, want)
		}
	}
	load("BENCH_net.json")
}

// TestChaosSweepHoldsItsClaims asserts what the chaos sweep must show at
// its own configuration (8 ranks, the endeavor profile, a 600 µs
// watchdog): every (plan, approach) cell ran once, no invariant broke and
// no trace wrapped, crashes were detected and then recovered from, and
// offloading did not delay detection.
func TestChaosSweepHoldsItsClaims(t *testing.T) {
	c := newCtx(nil)
	if chaosWatchdog(c) != 600_000 || c.prof("endeavor").Name != "endeavor-xeon" || chaosRanks < 4 {
		t.Fatalf("chaos configuration moved: watchdog %v ns, profile %s, %d ranks",
			chaosWatchdog(c), c.prof("endeavor").Name, chaosRanks)
	}
	cells := chaosCells(c)
	seen := map[string]int{}
	detect := map[string]float64{} // approach → crash DetectNs
	recoveryAttributed := false
	for _, cell := range cells {
		id := cell.Plan + "/" + cell.Approach
		seen[id]++
		if len(cell.Violations) != 0 {
			t.Errorf("%s: %d invariant violations, first: %s", id, len(cell.Violations), cell.Violations[0])
		}
		if cell.ElapsedNs <= 0 {
			t.Errorf("%s: empty cell", id)
		}
		// A cell that wraps the obs ring has lost the events around the
		// fault that its own violation analysis depends on.
		if cell.TraceDrops != 0 {
			t.Errorf("%s: obs ring dropped %d events; the post-fault trace is incomplete", id, cell.TraceDrops)
		}
		switch cell.Plan {
		case "crash":
			if cell.DetectNs <= 0 {
				t.Errorf("%s: crash never detected", id)
			}
			if cell.RecoverNs < cell.DetectNs {
				t.Errorf("%s: recovered (%f) before detecting (%f)", id, cell.RecoverNs, cell.DetectNs)
			}
			detect[cell.Approach] = cell.DetectNs
		}
		if cell.RecoveryPathNs > 0 {
			recoveryAttributed = true
		}
	}
	for _, plan := range chaosPlans {
		for _, a := range []string{"baseline", "offload"} {
			if n := seen[plan+"/"+a]; n != 1 {
				t.Errorf("sweep has %d %s/%s cells, want exactly 1", n, plan, a)
			}
		}
	}
	if len(cells) != 2*len(chaosPlans) {
		t.Errorf("sweep has %d cells, want %d", len(cells), 2*len(chaosPlans))
	}
	// The headline: offloading the communication does not delay failure
	// detection (small slack for schedule skew around the deadline).
	if off, base := detect["offload"], detect["baseline"]; off > base*1.10+50_000 {
		t.Errorf("offload detected the crash in %.0f ns, baseline in %.0f ns: offloading delayed detection", off, base)
	}
	if !recoveryAttributed {
		t.Error("no cell attributed critical-path time to recovery")
	}
}

// TestChaosStepIgnoresQuick: the chaos sweep has no reduced size, so the
// -quick run that results.txt records is the full-size sweep.
func TestChaosStepIgnoresQuick(t *testing.T) {
	_, recorded := resultsSections(t)
	e := lookup("chaos")
	for _, quick := range []bool{false, true} {
		var out bytes.Buffer
		c := newCtx(&out)
		c.quick = quick
		if err := c.runOne(e); err != nil {
			t.Fatalf("quick=%v: %v", quick, err)
		}
		if out.String() != recorded[e.heading] {
			t.Errorf("quick=%v prints\n%s--- recorded ---\n%s", quick, out.String(), recorded[e.heading])
		}
	}
}

// TestDocPath pins the rule that keeps quick runs off the committed gates.
func TestDocPath(t *testing.T) {
	c := newCtx(nil)
	if got := c.docPath("BENCH_net.json"); got != "BENCH_net.json" {
		t.Errorf("full-size sweep writes %s, want the committed name", got)
	}
	c.reduced = true
	if got := c.docPath("BENCH_net.json"); filepath.Dir(got) != filepath.Clean(os.TempDir()) {
		t.Errorf("reduced sweep writes %s, want a temp file", got)
	}
	c.out = "x.json"
	if got := c.docPath("BENCH_net.json"); got != "x.json" {
		t.Errorf("-out ignored: %s", got)
	}
}

// TestTracedRunPartitionsElapsedTime runs a traced Fig 7a (offload, two
// iterations) and writes its trace as -trace does: every run's critical
// path must attribute exactly its elapsed virtual time, and the file must
// carry the same attribution in its metadata.
func TestTracedRunPartitionsElapsedTime(t *testing.T) {
	var out bytes.Buffer
	c := newCtx(&out)
	c.iters, c.approaches = 2, []sim.Approach{sim.Offload}
	c.trace = obs.NewTrace(obs.Options{})
	c.traceFile = filepath.Join(t.TempDir(), "trace.json")
	if err := c.runOne(lookup("fig7a")); err != nil {
		t.Fatal(err)
	}
	if err := c.writeTrace(); err != nil {
		t.Fatal(err)
	}
	reports := critpath.Analyze(c.trace)
	if len(reports) == 0 {
		t.Fatal("the traced run recorded no runs")
	}
	for i, rep := range reports {
		if elapsed := c.trace.Runs[i].ElapsedNs; rep.Sum() != elapsed || rep.Total != elapsed {
			t.Errorf("run %q: attribution sums to %d ns (total %d), elapsed is %d ns", rep.Label, rep.Sum(), rep.Total, elapsed)
		}
	}
	file, err := os.ReadFile(c.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(file, critpath.MetaJSON(reports)) {
		t.Error("the trace file does not carry the critical-path attribution")
	}
}

// TestMetricsTablePerApproach: -metrics prints one table per approach,
// counting offload commands only under offload, and each experiment starts
// from zero counts (TakeMetricsPerApproach resets them).
func TestMetricsTablePerApproach(t *testing.T) {
	bench.TakeMetricsPerApproach() // drop what earlier tests accumulated
	run := func() string {
		var out bytes.Buffer
		c := newCtx(&out)
		c.quick, c.metrics = true, true
		c.approaches = []sim.Approach{sim.Baseline, sim.Offload}
		if err := c.runOne(lookup("fig7a")); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := run()
	submitted := regexp.MustCompile(`== offload metrics \[(\w+)\] ==\n(?:.*\n){2} *commands submitted +(\d+)\n`)
	if n := strings.Count(first, "== offload metrics ["); n != 2 {
		t.Errorf("%d metrics tables for 2 approaches", n)
	}
	got := map[string]string{}
	for _, m := range submitted.FindAllStringSubmatch(first, -1) {
		got[m[1]] = m[2]
	}
	if got["baseline"] != "0" || got["offload"] == "" || got["offload"] == "0" {
		t.Errorf("commands submitted per approach = %v, want baseline 0 and offload nonzero\n%s", got, first)
	}
	if second := run(); second != first {
		t.Errorf("a second run prints different counts:\n%s--- first ---\n%s", second, first)
	}
}
