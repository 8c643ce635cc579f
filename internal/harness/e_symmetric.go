package harness

import (
	"fmt"
	"strings"

	"popproto/internal/asciichart"
	"popproto/internal/registry"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// symmetricExperiment compares the Section 4 symmetric variant against the
// asymmetric protocol: both must elect in every run, and the symmetric
// version must pay only a constant factor ("no harmful influence on the
// analysis of stabilization time, at least asymptotically").
func symmetricExperiment() Experiment {
	e := Experiment{
		ID:    "symmetric",
		Title: "symmetric variant: correctness and constant-factor parity",
		Paper: "Section 4",
	}
	e.Run = func(cfg Config) Result {
		ns := []int{256, 512, 1024, 2048, 4096}
		repCount := reps(cfg, 30)
		if cfg.Quick {
			ns = []int{128, 512, 2048}
			repCount = 10
		}

		tbl := table.New("n", "asym t̄", "sym t̄", "ratio")
		xs := make([]float64, 0, len(ns))
		asymYs := make([]float64, 0, len(ns))
		symYs := make([]float64, 0, len(ns))
		allOK := true
		for i, n := range ns {
			asym := measureEnsemble(cfg, registry.Spec{
				Protocol: "pll", N: n, Engine: cfg.Engine, Seed: cfg.Seed + uint64(i),
			}, repCount, 0)
			sym := measureEnsemble(cfg, registry.Spec{
				Protocol: "pll-sym", N: n, Engine: cfg.Engine, Seed: cfg.Seed + uint64(i) + 31,
			}, repCount, 0)
			allOK = allOK && asym.Stabilized == asym.Replicates && sym.Stabilized == sym.Replicates
			a, s := asym.MeanParallelTime, sym.MeanParallelTime
			tbl.AddRowf(n, f1(a), f1(s), f2(s/a))
			xs = append(xs, float64(n))
			asymYs = append(asymYs, a)
			symYs = append(symYs, s)
		}

		symPower := stats.PowerFit(xs, symYs)
		lastRatio := symYs[len(symYs)-1] / asymYs[len(asymYs)-1]

		var body strings.Builder
		fmt.Fprintf(&body, "%d repetitions per cell; t̄ is mean parallel stabilization time.\n\n", cellReps(cfg, repCount))
		body.WriteString(tbl.Markdown())
		body.WriteString("\n```\n")
		body.WriteString(asciichart.Plot([]asciichart.Series{
			{Name: "PLL (asymmetric)", X: xs, Y: asymYs},
			{Name: "PLL symmetric (§4)", X: xs, Y: symYs},
		}, asciichart.Options{LogX: true, XLabel: "n", YLabel: "parallel time"}))
		body.WriteString("```\n")

		verdicts := []Verdict{
			{
				Claim:  "the symmetric variant elects exactly one leader in every run",
				Pass:   allOK,
				Detail: fmt.Sprintf("%d sizes × %d runs", len(ns), cellReps(cfg, repCount)),
			},
			{
				Claim:  "symmetric time stays logarithmic (Section 4: no asymptotic harm)",
				Pass:   symPower.Slope < pick(cfg, 0.45, 0.8),
				Detail: fmt.Sprintf("log-log exponent %s", f3(symPower.Slope)),
			},
			{
				Claim:  "the overhead is a modest constant factor",
				Pass:   lastRatio < pick(cfg, 10, 20),
				Detail: fmt.Sprintf("sym/asym ratio %s at n=%d", f2(lastRatio), ns[len(ns)-1]),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
