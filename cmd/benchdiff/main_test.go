package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpioffload/bench"
)

var oldMTScale = []byte(`{
  "schema": "mtscale/v3",
  "profile": "test",
  "sim": [{"threads": 1, "post_ns": 140, "mean_batch": 1},
          {"threads": 16, "post_ns": 140, "mean_batch": 13.7}],
  "rt": [{"threads": 16, "sharded_ns_per_post": 65, "shared_ns_per_post": 68}]
}`)

// newMTScaleRegressed degrades two lower-is-better metrics, each past its
// band in its own class: a 30% virtual post-cost blowup (band 10%) and a
// 50% wall-clock blowup (band 35%).
var newMTScaleRegressed = []byte(`{
  "schema": "mtscale/v3",
  "profile": "test",
  "sim": [{"threads": 1, "post_ns": 140, "mean_batch": 1},
          {"threads": 16, "post_ns": 182, "mean_batch": 13.7}],
  "rt": [{"threads": 16, "sharded_ns_per_post": 98, "shared_ns_per_post": 68}]
}`)

// netRate is a one-row net/v1 document whose 16-thread offload rate is
// offload16 messages per second.
func netRate(offload16 int) []byte {
	return []byte(fmt.Sprintf(`{
  "schema": "net/v1",
  "backends": [{"backend": "unix",
    "pingpong": [{"size": 8, "latency_ns": 21000}],
    "rate": [{"threads": 16, "direct_msgs_per_sec": 300000,
              "offload_msgs_per_sec": %d}]}]
}`, offload16))
}

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSyntheticRegression: one regression per way a metric can regress —
// a lower-is-better virtual and wall-clock metric growing past their
// bands (mtscale/v3), and a higher-is-better wall-clock rate falling past
// its band (net/v1: a 40% offload throughput loss, band 35%).
func TestSyntheticRegression(t *testing.T) {
	tol := tolerances{virtual: 0.10, wall: 0.35}
	var rows []diffRow
	for _, pair := range [][2][]byte{
		{oldMTScale, newMTScaleRegressed},
		{netRate(330000), netRate(198000)},
	} {
		oldDoc, err := bench.LoadDoc(writeTemp(t, "old.json", pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		newDoc, err := bench.LoadDoc(writeTemp(t, "new.json", pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, diffMetrics(oldDoc.Metrics(), newDoc.Metrics(), tol)...)
	}
	var buf bytes.Buffer
	regressions := writeTable(&buf, "synthetic", "old", "new", rows)
	if regressions != 3 {
		t.Fatalf("synthetic diff found %d regressions, want 3:\n%s", regressions, buf.String())
	}
	for _, want := range []string{
		"sim.post_ns{threads=16}",
		"rt.sharded_ns_per_post{threads=16}",
		"net.offload_msgs_per_sec{backend=unix,threads=16}",
	} {
		flagged := false
		for _, r := range rows {
			if r.key == want && r.verdict == vRegression {
				flagged = true
			}
		}
		if !flagged {
			t.Errorf("metric %s not flagged as regression", want)
		}
	}
	// Unchanged rows stay ok; the 1-thread row did not move.
	for _, r := range rows {
		if r.key == "sim.post_ns{threads=1}" && r.verdict != vOK {
			t.Errorf("unchanged metric got verdict %s", r.verdict)
		}
	}
}

func TestSelfDiffIsClean(t *testing.T) {
	p := writeTemp(t, "doc.json", oldMTScale)
	d1, err := bench.LoadDoc(p)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := bench.LoadDoc(p)
	for _, r := range diffMetrics(d1.Metrics(), d2.Metrics(), tolerances{virtual: 0.10, wall: 0.35}) {
		if r.verdict == vRegression {
			t.Errorf("self-diff flags %s as regression", r.key)
		}
	}
}

// TestCommittedBaselinesSelfDiff: every committed BENCH document
// self-diffs clean, as `benchdiff BENCH_<doc>.json BENCH_<doc>.json` does.
func TestCommittedBaselinesSelfDiff(t *testing.T) {
	for _, k := range bench.Docs {
		d, err := bench.LoadDoc(filepath.Join("..", "..", k.File))
		if err != nil {
			t.Fatalf("committed baseline: %v", err)
		}
		for _, r := range diffMetrics(d.Metrics(), d.Metrics(), tolerances{virtual: 0.10, wall: 0.35}) {
			if r.verdict == vRegression {
				t.Errorf("%s: self-diff flags %s", k.File, r.key)
			}
		}
	}
}

// TestSweepPointChurn: metrics present in only one generation are reported
// but never gate.
func TestSweepPointChurn(t *testing.T) {
	olds := []bench.Metric{{Key: "a", Val: 1, Class: bench.Virtual}, {Key: "gone", Val: 2, Class: bench.Virtual}}
	news := []bench.Metric{{Key: "a", Val: 1, Class: bench.Virtual}, {Key: "fresh", Val: 3, Class: bench.Virtual}}
	rows := diffMetrics(olds, news, tolerances{virtual: 0.10})
	var buf bytes.Buffer
	if n := writeTable(&buf, "s", "o", "n", rows); n != 0 {
		t.Fatalf("churn produced %d regressions, want 0:\n%s", n, buf.String())
	}
	byKey := map[string]verdict{}
	for _, r := range rows {
		byKey[r.key] = r.verdict
	}
	if byKey["gone"] != vRemoved || byKey["fresh"] != vAdded {
		t.Fatalf("churn verdicts = %v", byKey)
	}
	for _, r := range rows {
		if r.key == "gone" && !math.IsNaN(r.new) {
			t.Error("removed metric has a new value")
		}
	}
	if !strings.Contains(buf.String(), "| removed |") || !strings.Contains(buf.String(), "| added |") {
		t.Errorf("table missing churn rows:\n%s", buf.String())
	}
}

// TestNetSchema: net/v1 documents flatten to wall-clock latency and rate
// metrics plus info-class residual ratios; a rate collapse past the wall
// band gates, a residual drift never does.
func TestNetSchema(t *testing.T) {
	mk := func(offload16, ratio float64) []byte {
		return []byte(`{
  "schema": "net/v1",
  "backends": [{"backend": "unix",
    "pingpong": [{"size": 8, "latency_ns": 21000}],
    "rate": [{"threads": 16, "direct_msgs_per_sec": 300000,
              "offload_msgs_per_sec": ` + num(offload16) + `}]}],
  "residuals": [{"bench": "pingpong/8", "backend": "unix",
                 "sim_ns": 1200, "real_ns": 21000, "ratio": ` + num(ratio) + `}]
}`)
	}
	oldDoc, err := bench.LoadDoc(writeTemp(t, "old.json", mk(330000, 17.5)))
	if err != nil {
		t.Fatal(err)
	}
	// Offload rate halves (past the 35% wall band, higher-better) while the
	// residual ratio triples (info class, must not gate).
	newDoc, err := bench.LoadDoc(writeTemp(t, "new.json", mk(165000, 52.5)))
	if err != nil {
		t.Fatal(err)
	}
	rows := diffMetrics(oldDoc.Metrics(), newDoc.Metrics(), tolerances{virtual: 0.10, wall: 0.35})
	var buf bytes.Buffer
	if n := writeTable(&buf, "net/v1", "old", "new", rows); n != 1 {
		t.Fatalf("net diff found %d regressions, want 1:\n%s", n, buf.String())
	}
	verdicts := map[string]verdict{}
	for _, r := range rows {
		verdicts[r.key] = r.verdict
	}
	if v := verdicts["net.offload_msgs_per_sec{backend=unix,threads=16}"]; v != vRegression {
		t.Errorf("halved offload rate got verdict %s, want REGRESSION", v)
	}
	if v := verdicts["net.residual_ratio{bench=pingpong/8,backend=unix}"]; v != vInfo {
		t.Errorf("residual ratio drift got verdict %s, want info", v)
	}
	if v := verdicts["net.pingpong_ns{backend=unix,size=8}"]; v != vOK {
		t.Errorf("unchanged latency got verdict %s, want ok", v)
	}
}
