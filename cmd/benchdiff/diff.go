package main

// The diff engine: a document flattens to an ordered list of named
// metrics (bench.Doc.Metrics), each tagged with a class that selects its
// tolerance band and direction; diffMetrics joins two generations by
// metric key and classifies every pair as ok / better / regression / info.

import (
	"fmt"
	"io"
	"math"

	"mpioffload/bench"
)

type tolerances struct {
	virtual, wall float64
}

// verdict is the classification of one compared metric, as printed.
type verdict string

const (
	vOK         verdict = "ok"
	vBetter     verdict = "better"
	vRegression verdict = "REGRESSION"
	vInfo       verdict = "info"
	vAdded      verdict = "added"
	vRemoved    verdict = "removed"
)

// diffRow is one line of the trend table.
type diffRow struct {
	key      string
	class    bench.Class
	old, new float64
	delta    float64 // relative change, NaN when old == 0
	verdict  verdict
}

// diffMetrics joins the two generations in old-document order (new-only
// metrics append at the end) and classifies every pair.
func diffMetrics(olds, news []bench.Metric, tol tolerances) []diffRow {
	newBy := make(map[string]bench.Metric, len(news))
	for _, m := range news {
		newBy[m.Key] = m
	}
	var rows []diffRow
	for _, om := range olds {
		nm, ok := newBy[om.Key]
		if !ok {
			rows = append(rows, diffRow{key: om.Key, class: om.Class, old: om.Val, new: math.NaN(), verdict: vRemoved})
			continue
		}
		delete(newBy, om.Key)
		rows = append(rows, compare(om, nm, tol))
	}
	for _, nm := range news {
		if _, stillNew := newBy[nm.Key]; stillNew {
			rows = append(rows, diffRow{key: nm.Key, class: nm.Class, old: math.NaN(), new: nm.Val, verdict: vAdded})
		}
	}
	return rows
}

func compare(om, nm bench.Metric, tol tolerances) diffRow {
	row := diffRow{key: om.Key, class: om.Class, old: om.Val, new: nm.Val}
	rel := math.NaN()
	if om.Val != 0 {
		rel = (nm.Val - om.Val) / math.Abs(om.Val)
	}
	row.delta = rel

	if om.Class == bench.Info {
		row.verdict = vInfo
		return row
	}

	band := tol.virtual
	if om.Class == bench.Wall {
		band = tol.wall
	}
	// Signed "worse" fraction: positive means the metric moved the wrong way.
	worse := rel
	if om.Dir == bench.HigherBetter {
		worse = -rel
	}
	switch {
	case om.Val == 0 && nm.Val == 0:
		row.verdict = vOK
	case om.Val == 0:
		// No baseline to band against; a metric appearing from zero is
		// surfaced but cannot gate.
		row.verdict = vInfo
	case worse > band:
		row.verdict = vRegression
	case worse < -band:
		row.verdict = vBetter
	default:
		row.verdict = vOK
	}
	return row
}

// writeTable renders the markdown trend table and returns the regression
// count.
func writeTable(w io.Writer, schema, oldPath, newPath string, rows []diffRow) int {
	fmt.Fprintf(w, "## benchdiff: %s\n\n", schema)
	fmt.Fprintf(w, "old: `%s` → new: `%s`\n\n", oldPath, newPath)
	fmt.Fprintln(w, "| metric | class | old | new | Δ | status |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---|")
	regressions := 0
	for _, r := range rows {
		if r.verdict == vRegression {
			regressions++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			r.key, r.class, num(r.old), num(r.new), pct(r.delta), r.verdict)
	}
	return regressions
}

func num(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}
