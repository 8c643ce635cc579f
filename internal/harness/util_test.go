package harness

import (
	"errors"
	"strings"
	"testing"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

func TestPickThresholds(t *testing.T) {
	quick := Config{Quick: true}
	full := Config{}
	if pick(quick, 0.35, 0.65) != 0.65 {
		t.Fatal("quick mode must use the lenient threshold")
	}
	if pick(full, 0.35, 0.65) != 0.35 {
		t.Fatal("full mode must use the strict threshold")
	}
}

func TestSweepSizesShapes(t *testing.T) {
	quick := sweepSizes(Config{Quick: true}, true)
	if len(quick) != 3 || quick[len(quick)-1] > 4096 {
		t.Fatalf("quick sweep %v", quick)
	}
	logFull := sweepSizes(Config{}, true)
	linFull := sweepSizes(Config{}, false)
	if logFull[len(logFull)-1] <= linFull[len(linFull)-1] {
		t.Fatalf("log sweep %v must extend past linear sweep %v", logFull, linFull)
	}
	for _, sweep := range [][]int{quick, logFull, linFull} {
		for i := 1; i < len(sweep); i++ {
			if sweep[i] <= sweep[i-1] {
				t.Fatalf("sweep not increasing: %v", sweep)
			}
		}
	}
}

func TestRepsScaling(t *testing.T) {
	if got := reps(Config{}, 100); got != 100 {
		t.Fatalf("full reps = %d", got)
	}
	if got := reps(Config{Quick: true}, 100); got != 33 {
		t.Fatalf("quick reps = %d, want 33", got)
	}
	if got := reps(Config{Quick: true}, 6); got != 8 {
		t.Fatalf("quick floor = %d, want 8", got)
	}
}

func TestBudgetsGrow(t *testing.T) {
	if registry.LogBudget(1024) >= registry.LogBudget(4096) {
		t.Fatal("log budget not increasing")
	}
	if registry.LinearBudget(1024) >= registry.LinearBudget(4096) {
		t.Fatal("linear budget not increasing")
	}
	if registry.LinearBudget(4096) <= registry.LogBudget(4096) {
		t.Fatal("linear budget should exceed log budget at scale")
	}
}

func TestRenderReportAndPassed(t *testing.T) {
	e := Experiment{ID: "fake", Title: "fake title", Paper: "Lemma 0"}
	res := renderReport(e, "body text\n", []Verdict{
		{Claim: "holds", Pass: true, Detail: "ok"},
		{Claim: "fails", Pass: false, Detail: "nope"},
	})
	if res.Passed() {
		t.Fatal("failing verdict not reflected")
	}
	for _, frag := range []string{"Experiment `fake`", "Lemma 0", "body text",
		"[PASS] holds", "[FAIL] fails"} {
		if !strings.Contains(res.Markdown, frag) {
			t.Fatalf("report missing %q:\n%s", frag, res.Markdown)
		}
	}
	allPass := renderReport(e, "", []Verdict{{Claim: "x", Pass: true}})
	if !allPass.Passed() {
		t.Fatal("all-pass result reported failing")
	}
}

func TestRunUntilHelper(t *testing.T) {
	sim := pp.NewSimulator[baseline.AngluinState](baseline.Angluin{}, 32, 1)
	steps, ok := runUntil(sim, 16, 1<<30, func(s pp.Runner[baseline.AngluinState]) bool {
		return s.Leaders() == 1
	})
	if !ok || sim.Leaders() != 1 {
		t.Fatalf("runUntil: steps=%d ok=%v leaders=%d", steps, ok, sim.Leaders())
	}
	// Exhausted budget reports failure.
	sim2 := pp.NewSimulator[baseline.AngluinState](baseline.Angluin{}, 32, 1)
	if _, ok := runUntil(sim2, 16, 4, func(s pp.Runner[baseline.AngluinState]) bool {
		return false
	}); ok {
		t.Fatal("unsatisfiable predicate reported satisfied")
	}
}

func TestSummarizeOrEmpty(t *testing.T) {
	if s := summarizeOr(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s := summarizeOr([]float64{2, 4}); s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestEnsembleCellReportsBudgetFailures(t *testing.T) {
	// A 2-step budget cannot elect among 64 duelling agents — on any
	// engine.
	for _, engine := range pp.Engines() {
		agg := measureEnsemble(Config{Workers: 2}, ensemble.Spec{
			Registry:   registry.Spec{Protocol: "angluin", N: 64, Engine: engine, Seed: 1},
			Replicates: 5, Budget: 2,
		})
		if agg.Replicates != 5 {
			t.Fatalf("engine %s: got %d replicates", engine, agg.Replicates)
		}
		if agg.Stabilized != 0 {
			t.Fatalf("engine %s: budget failure not reported (%d stabilized)", engine, agg.Stabilized)
		}
	}
}

func TestBuildBstartShape(t *testing.T) {
	const n = 64
	p := core.NewForN(n)
	sim := pp.NewSimulator[core.State](p, n, 1)
	buildBstart(p, sim, 5, 99)
	if sim.Leaders() != 5 {
		t.Fatalf("leaders = %d, want 5", sim.Leaders())
	}
	census := pp.CensusBy(sim, func(s core.State) core.Status { return s.Status })
	if census[core.StatusA] != n/2 || census[core.StatusB] != n/2 {
		t.Fatalf("status census %v", census)
	}
	sim.ForEach(func(id int, s core.State) {
		if s.Epoch != 4 || s.Init != 4 {
			t.Fatalf("agent %d not in epoch 4: %v", id, s)
		}
		if err := p.CheckCanonical(s); err != nil {
			t.Fatalf("agent %d: %v", id, err)
		}
		if s.LevelB > 1 {
			t.Fatalf("agent %d levelB %d > 1 violates Definition 3", id, s.LevelB)
		}
	})
	// The constructed configuration must elect.
	if _, ok := sim.RunUntilLeaders(1, 100*registry.LogBudget(n)); !ok {
		t.Fatal("Bstart configuration did not elect")
	}
}

func TestFormatHelpers(t *testing.T) {
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Fatalf("f1 = %q", f1(1.25))
	}
	if f2(3.14159) != "3.14" {
		t.Fatalf("f2 = %q", f2(3.14159))
	}
	if f3(2.0/3) != "0.667" {
		t.Fatalf("f3 = %q", f3(2.0/3))
	}
	if f4(0.5) != "0.5000" {
		t.Fatalf("f4 = %q", f4(0.5))
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Quick {
		t.Fatal("default config must be full scale")
	}
	if cfg.Seed == 0 {
		t.Fatal("default config needs a fixed nonzero seed")
	}
}

func TestGeometricGOFShift(t *testing.T) {
	// A perfect shifted-geometric sample must pass with shift 1 and fail
	// with shift 0.
	var levels []int
	for k := 1; k <= 10; k++ {
		copies := 10000 >> uint(k)
		for i := 0; i < copies; i++ {
			levels = append(levels, k)
		}
	}
	if g := geometricGOF(levels, 1); g.P < 0.01 {
		t.Fatalf("shift-1 rejected: %v", g)
	}
	if g := geometricGOF(levels, 0); g.P > 0.01 {
		t.Fatalf("shift-0 accepted: %v", g)
	}
}

func TestLag1Autocorr(t *testing.T) {
	// The estimator normalizes by N terms but sums N−1 products, so a
	// perfectly alternating sequence of length 8 yields −7/8.
	alternating := []int{1, 0, 1, 0, 1, 0, 1, 0}
	if c := lag1Autocorr(alternating); c > -0.8 {
		t.Fatalf("alternating sequence autocorr = %v, want ≤ -0.8", c)
	}
	constant := []int{1, 1, 1, 1}
	if c := lag1Autocorr(constant); c != 0 {
		t.Fatalf("degenerate sequence autocorr = %v, want 0", c)
	}
	if c := lag1Autocorr([]int{1}); c != 0 {
		t.Fatalf("short sequence autocorr = %v", c)
	}
}

var errSentinel = errors.New("sentinel")

func TestVerdictDetailPreserved(t *testing.T) {
	v := Verdict{Claim: "c", Pass: false, Detail: errSentinel.Error()}
	if v.Detail != "sentinel" {
		t.Fatal("detail mangled")
	}
}
