package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpioffload/bench"
	"mpioffload/internal/model"
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
// figure that runs the phantom allreduce), run through the experiment
// table with -quick as results.txt was recorded, must print their recorded
// sections byte for byte.
func TestResultsTxtIsReproduced(t *testing.T) {
	_, recorded := resultsSections(t)
	for _, name := range []string{"fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6",
		"fig7a", "fig8a", "table1", "fig10", "table2", "fig14"} {
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
// figures stubbed out: the three document sweeps must write to the temp
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
	// A drop cell's retransmissions must answer losses the plan really
	// injected on the wire.
	for _, cell := range load("BENCH_chaos.json").(*bench.ChaosReport).Cells {
		if cell.Plan == "drop" && cell.Dropped == 0 {
			t.Errorf("%s/%s: the drop plan injected no losses", cell.Plan, cell.Approach)
		}
	}
	load("BENCH_net.json")
}

// TestDocPath pins the rule that keeps smoke runs off the committed gates.
func TestDocPath(t *testing.T) {
	c := newCtx(nil)
	if got := c.docPath("BENCH_chaos.json"); got != "BENCH_chaos.json" {
		t.Errorf("full-size sweep writes %s, want the committed name", got)
	}
	c.reduced = true
	if got := c.docPath("BENCH_chaos.json"); filepath.Dir(got) != filepath.Clean(os.TempDir()) {
		t.Errorf("reduced sweep writes %s, want a temp file", got)
	}
	c.out = "x.json"
	if got := c.docPath("BENCH_chaos.json"); got != "x.json" {
		t.Errorf("-out ignored: %s", got)
	}
}
