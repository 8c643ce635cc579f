package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultsFile is what -out writes: the host record and every run.
type resultsFile struct {
	Host      hostInfo               `json:"host"`
	Seconds   int                    `json:"seconds"`
	Workloads map[string][]runResult `json:"workloads"`
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// side summarizes one side's runs of one (workload, metric).
type side struct {
	values      []float64
	med, q1, q3 float64
	spread      float64 // (q3 − q1) / median
}

func summarize(values []float64) side {
	s := side{values: values, med: median(values), q1: quantile(values, 0.25), q3: quantile(values, 0.75)}
	s.spread = ratio(s.q3-s.q1, s.med)
	return s
}

// verdict compares B (the change) against A (the base) for one metric:
//
//   - "unresolved" when either side's run-to-run spread is wider than the
//     bound, unless every run of B reads better than every run of A;
//   - "REGRESSION" when B's median is worse than A's by more than the
//     bound;
//   - "gain" when at least ten pairs were run, B wins nine in ten of
//     them (ties count for neither) and the medians differ by more than
//     A's quartile spread;
//   - "same" otherwise.
func verdict(def metricDef, a, b side) (string, int, int) {
	better := func(x, y float64) bool { // x reads better than y
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a.values), len(b.values))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b.values[i], a.values[i]) {
			wins++
		}
	}
	allBetter := true
	for _, x := range b.values {
		for _, y := range a.values {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := ratio(b.med-a.med, a.med)
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Max(a.spread, b.spread) > def.Bound && !allBetter:
		return "unresolved", wins, pairs
	case worse > def.Bound:
		return "REGRESSION", wins, pairs
	case pairs >= 10 && 10*wins >= 9*pairs && math.Abs(b.med-a.med) > a.q3-a.q1 && worse < 0:
		return "gain", wins, pairs
	default:
		return "same", wins, pairs
	}
}

// compareResults prints one row per (workload, end-to-end metric) and
// reports whether any regressed or could not be resolved.
func compareResults(w io.Writer, bench *benchFile, a, b *resultsFile) (bad bool) {
	fmt.Fprintf(w, "A: %s, %d cpus, %s, commit %s\n", a.Host.CPU, a.Host.NProc, a.Host.Kernel, a.Host.Commit)
	fmt.Fprintf(w, "B: %s, %d cpus, %s, commit %s\n", b.Host.CPU, b.Host.NProc, b.Host.Kernel, b.Host.Commit)
	fmt.Fprintf(w, "%-15s %-13s %-5s %28s %28s %8s %6s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "wins", "verdict")
	for _, wl := range bench.workloadNames() {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, def := range bench.EndToEnd {
			sa, sb := summarize(metricValues(ra, def.Name)), summarize(metricValues(rb, def.Name))
			v, wins, pairs := verdict(def, sa, sb)
			bad = bad || v == "REGRESSION" || v == "unresolved"
			fmt.Fprintf(w, "%-15s %-13s %-5s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %+7.1f%% %5.0f%% %3d/%-2d  %s\n",
				wl, def.Name, def.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3,
				100*ratio(sb.med-sa.med, sa.med), 100*def.Bound, wins, pairs, v)
		}
	}
	return bad
}

func metricValues(runs []runResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}
