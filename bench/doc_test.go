package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docCase is one schema's test input: a minimal report that validates and
// the ways of damaging it the validator must catch — structural damage,
// surviving violations, regressed headline claims and perf gates.
type docCase struct {
	good    func() Doc
	corrupt map[string]func(Doc)
}

// on adapts a mutation of one concrete report type to the Doc-level table.
func on[T Doc](f func(T)) func(Doc) { return func(d Doc) { f(d.(T)) } }

var docCases = map[string]docCase{
	MTScaleSchema: {goodMTScale, map[string]func(Doc){
		"wrong schema":    on(func(r *MTScaleReport) { r.Schema = "mtscale/v2" }),
		"missing profile": on(func(r *MTScaleReport) { r.Profile = "" }),
		"empty sim":       on(func(r *MTScaleReport) { r.Sim = nil }),
		"empty rt":        on(func(r *MTScaleReport) { r.RT = nil }),
		"zero post":       on(func(r *MTScaleReport) { r.Sim[0].PostNs = 0 }),
		"zero batch":      on(func(r *MTScaleReport) { r.Sim[0].MeanBatch = 0 }),
		"negative rt":     on(func(r *MTScaleReport) { r.RT[0].ShardedNsPerPost = -1 }),
		"descending threads": on(func(r *MTScaleReport) {
			r.Sim = append(r.Sim, MTScaleResult{Threads: 1, PostNs: 140, MeanBatch: 1})
			r.Sim[0].Threads = 2
		}),
		"perf gate: sharded slower than shared at 16": on(func(r *MTScaleReport) {
			r.RT[1].ShardedNsPerPost = r.RT[1].SharedNsPerPost + 1
		}),
	}},
	NetSchema: {goodNet, map[string]func(Doc){
		"wrong schema":       on(func(r *NetReport) { r.Schema = "net/v0" }),
		"no backends":        on(func(r *NetReport) { r.Backends = nil }),
		"unnamed backend":    on(func(r *NetReport) { r.Backends[0].Backend = "" }),
		"empty pingpong":     on(func(r *NetReport) { r.Backends[0].PingPong = nil }),
		"descending threads": on(func(r *NetReport) { r.Backends[0].Rate[0].Threads = 32 }),
		"zero latency":       on(func(r *NetReport) { r.Backends[0].PingPong[0].LatencyNs = 0 }),
		"perf gate: offload below direct at 16": on(func(r *NetReport) {
			r.Backends[0].Rate[1].OffloadMsgsSec = r.Backends[0].Rate[1].DirectMsgsSec - 1
		}),
		"full size without residuals": on(func(r *NetReport) { r.Residuals = nil }),
		"inconsistent ratio":          on(func(r *NetReport) { r.Residuals[0].Ratio *= 2 }),
	}},
}

func goodMTScale() Doc {
	return &MTScaleReport{
		Schema:  MTScaleSchema,
		Profile: "endeavor-xeon",
		Sim:     []MTScaleResult{{Threads: 1, PostNs: 140, MeanBatch: 1}},
		RT: []RTScaleRow{
			{Threads: 1, ShardedNsPerPost: 100, SharedNsPerPost: 110},
			{Threads: 16, ShardedNsPerPost: 120, SharedNsPerPost: 400},
		},
	}
}

func goodNet() Doc {
	return &NetReport{
		Schema: NetSchema,
		Backends: []NetBackend{{
			Backend:  "unix",
			PingPong: []PingPongRow{{Size: 8, LatencyNs: 21_000}},
			Rate: []RateRow{
				{Threads: 1, DirectMsgsSec: 250_000, OffloadMsgsSec: 240_000},
				{Threads: 16, DirectMsgsSec: 300_000, OffloadMsgsSec: 330_000},
			},
		}},
		Residuals: []NetResidual{{Bench: "pingpong/8", Backend: "unix", SimNs: 1200, RealNs: 21_000, Ratio: 17.5}},
	}
}

// goldenKeys reads testdata/metric_keys.golden: per committed file, the
// "key class" pairs of cmd/benchdiff's trend table, in order. A key or a
// class that changes breaks every comparison against older generations.
func goldenKeys(t *testing.T) map[string][]string {
	data, err := os.ReadFile(filepath.Join("testdata", "metric_keys.golden"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Split(line, "\t")
		keys[f[0]] = append(keys[f[0]], f[1]+" "+f[2])
	}
	return keys
}

// TestDocRegistry is the one test of the one document model, table-driven
// over the registry. For every schema: the committed document loads,
// validates (structure and gates), flattens to exactly the metric keys and
// classes benchdiff has always printed, and round-trips through WriteDoc
// to the committed bytes; the minimal good report validates and every
// corruption of it is rejected — by Validate and therefore by WriteDoc.
func TestDocRegistry(t *testing.T) {
	golden := goldenKeys(t)
	if len(docCases) != len(Docs) {
		t.Fatalf("%d schemas registered, %d have test cases", len(Docs), len(docCases))
	}
	for _, k := range Docs {
		t.Run(k.Schema, func(t *testing.T) {
			committed := filepath.Join("..", k.File)
			d, err := LoadDoc(committed)
			if err != nil {
				t.Fatal(err)
			}
			if d.Tag() != k.Schema {
				t.Fatalf("%s carries schema %q, registry says %q", k.File, d.Tag(), k.Schema)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("committed %s fails its gates: %v", k.File, err)
			}
			var got []string
			for _, m := range d.Metrics() {
				got = append(got, fmt.Sprintf("%s %s", m.Key, m.Class))
			}
			if want := golden[k.File]; strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s flattens to %d metrics, golden has %d; first difference: %s",
					k.File, len(got), len(want), firstDiff(got, want))
			}
			out := filepath.Join(t.TempDir(), k.File)
			if err := WriteDoc(out, d); err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(committed)
			if written, _ := os.ReadFile(out); !bytes.Equal(written, want) {
				t.Errorf("WriteDoc does not reproduce the committed bytes of %s", k.File)
			}

			tc := docCases[k.Schema]
			if err := tc.good().Validate(); err != nil {
				t.Fatalf("baseline report should validate: %v", err)
			}
			for name, corrupt := range tc.corrupt {
				bad := tc.good()
				corrupt(bad)
				if err := bad.Validate(); err == nil {
					t.Errorf("%s: validator accepted a corrupt report", name)
				}
				if err := WriteDoc(filepath.Join(t.TempDir(), "bad.json"), bad); err == nil {
					t.Errorf("%s: WriteDoc wrote a corrupt report", name)
				}
			}
		})
	}
}

func firstDiff(got, want []string) string {
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			return fmt.Sprintf("line %d: got %q", i+1, got[i])
		}
	}
	return fmt.Sprintf("line %d missing", len(got)+1)
}

// TestLoadDocRejects: unknown tags and documents that flatten to nothing
// are not benchmark documents.
func TestLoadDocRejects(t *testing.T) {
	for name, body := range map[string]string{
		"unknown schema": `{"schema":"mystery/v9"}`,
		"empty document": `{"schema":"net/v1","backends":[]}`,
		"not json":       `schema: net/v1`,
	} {
		p := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDoc(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
