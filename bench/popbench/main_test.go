package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries builds popprotod and popbench (the set-up children are
// popbench itself) into a temporary directory.
func buildBinaries(t *testing.T) (popprotod, popbench string) {
	t.Helper()
	dir := t.TempDir()
	popprotod = filepath.Join(dir, "popprotod")
	popbench = filepath.Join(dir, "popbench")
	for _, b := range [][2]string{{popprotod, "popproto/cmd/popprotod"}, {popbench, "."}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b[1], err, out)
		}
	}
	return popprotod, popbench
}

// TestWorkloadsShort runs every workload of BENCHMARK.json untraced and
// traced at a one-second budget (the fixed minimums set the actual
// length) and checks that each run is correct and that the metric names
// it produces match BENCHMARK.json exactly, in both directions.
func TestWorkloadsShort(t *testing.T) {
	bench, err := loadBench("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	popprotod, popbench := buildBinaries(t)
	work := t.TempDir()
	for _, w := range bench.workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := runWorkload(config{
				workload: w, seed: 3, seconds: 1, trace: true,
				popprotod: popprotod, work: work, self: popbench,
			})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%q", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			res.Metrics["peak_rss_mib"] = 1 // the parent measures it for in-process workloads
			if err := checkNames(bench.EndToEnd, res.Metrics); err != nil {
				t.Error("end-to-end:", err)
			}
			if err := checkNames(bench.PerLayer, res.Layers); err != nil {
				t.Error("per-layer:", err)
			}
			for _, d := range bench.EndToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
		})
	}
}

// TestCheckNamesBothDirections: a missing and an unlisted name are both
// reported.
func TestCheckNamesBothDirections(t *testing.T) {
	defs := []metricDef{{Name: "a"}, {Name: "b"}}
	err := checkNames(defs, map[string]float64{"a": 1, "c": 2})
	if err == nil || !strings.Contains(err.Error(), "missing [b]") || !strings.Contains(err.Error(), "not listed [c]") {
		t.Fatalf("checkNames = %v", err)
	}
	if err := checkNames(defs, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoLeadersCountAsFailed serves jobs from a stub whose results have
// two leaders: every run must count as failed.
func TestTwoLeadersCountAsFailed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"job":{"id":"j1","state":"queued"},"cached":false}`)
	})
	mux.HandleFunc("GET /v1/jobs/j1/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: census\ndata: {}\n\n")
		fmt.Fprint(w, `event: done`+"\n"+`data: {"id":"j1","state":"done","result":{"stabilized":true,"leaders":2,"steps":10}}`+"\n\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	p := newPass("serve-write", 1, 50*time.Millisecond, false, "", "", t.TempDir())
	s := &server{base: stub.URL, hc: stub.Client()}
	ph, err := p.load(s, p.budget, "stub", func(c, i int) request { return jobRequest(writeN, uint64(i+1)) })
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted == 0 || p.failed != p.attempted {
		t.Fatalf("attempted=%d failed=%d, want every run failed", p.attempted, p.failed)
	}
	if len(ph.runs) != p.attempted || !strings.Contains(p.problems[0], `"leaders":2`) {
		t.Fatalf("problems = %q", p.problems)
	}
}

// TestVerdict pins the comparison rules.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	ten := func(x float64) []float64 {
		return []float64{x, x + .1, x - .1, x, x + .2, x, x - .2, x + .1, x, x - .1}
	}
	same := summarize(ten(10))
	cases := []struct {
		b    []float64
		want string
	}{
		{ten(10), "same"},
		{ten(12), "REGRESSION"},
		{ten(8), "gain"},
		{ten(8)[:5], "same"}, // a gain needs ten pairs
		{[]float64{5, 15, 8, 12, 10, 5, 15, 8, 12, 10}, "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(lower, same, summarize(c.b)); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

// TestSelfTimes: a parent's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "a", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 1, Name: "b", Start: 30e6, End: 60e6},
	}
	self := selfTimes(spans)
	if self["run"] != 50 || self["a"] != 30 || self["b"] != 30 {
		t.Fatalf("self = %v", self)
	}
}
