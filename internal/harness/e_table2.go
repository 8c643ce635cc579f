package harness

import (
	"fmt"
	"math"
	"strings"

	"popproto/internal/core"
	"popproto/internal/registry"
	"popproto/internal/table"
)

// table2Experiment checks the measurements for consistency with the lower
// bounds of Table 2. Lower bounds cannot be "reproduced" by running code,
// but measured times must respect them: a constant-state protocol must pay
// Ω(n) ([DS18]), and no protocol — PLL included — may beat Ω(log n)
// ([SM19], and the coupon-collector argument of the introduction).
func table2Experiment() Experiment {
	e := Experiment{
		ID:    "table2",
		Title: "measured times respect the lower bounds",
		Paper: "Table 2 ([DS18] Ω(n) for O(1) states; [SM19] Ω(log n) for any state count)",
	}
	e.Run = func(cfg Config) Result {
		ns := sweepSizes(cfg, false)
		rep := reps(cfg, 20)

		tbl := table.New("n", "Angluin t̄", "t̄ / n (DS18 wants ≳ const)",
			"PLL t̄", "t̄ / lg n (SM19 wants ≳ const)")
		var angPerN, pllPerLog []float64
		minPLLRatio := math.Inf(1)
		for i, n := range ns {
			angAgg := measureEnsemble(cfg, registry.Spec{
				Protocol: "angluin", N: n, Engine: cfg.Engine, Seed: cfg.Seed + uint64(i),
			}, rep, 0)
			pllAgg := measureEnsemble(cfg, registry.Spec{
				Protocol: "pll", N: n, Engine: cfg.Engine, Seed: cfg.Seed + uint64(i) + 7_777,
			}, rep, 0)
			ang := angAgg.MeanParallelTime
			pll := pllAgg.MeanParallelTime
			lg := float64(core.CeilLog2(n))
			tbl.AddRowf(n, f1(ang), f3(ang/float64(n)), f1(pll), f2(pll/lg))
			angPerN = append(angPerN, ang/float64(n))
			pllPerLog = append(pllPerLog, pll/lg)
			minPLLRatio = math.Min(minPLLRatio, pll/lg)
		}

		// DS18 consistency: time/n stays bounded away from zero (does not
		// decay with n). SM19 consistency: time/lg n bounded below by a
		// positive constant.
		angFirst, angLast := angPerN[0], angPerN[len(angPerN)-1]

		var body strings.Builder
		fmt.Fprintf(&body, "%d replicates per cell (multi-core ensemble executor); "+
			"t̄ is mean parallel stabilization time.\n\n", cellReps(cfg, rep))
		body.WriteString(tbl.Markdown())
		body.WriteString("\nA lower bound is *violated* only if the normalized time decays toward 0 as n grows.\n")

		verdicts := []Verdict{
			{
				Claim: "[DS18] Ω(n) for constant states: Angluin's t̄/n does not decay",
				Pass:  angLast > 0.5*angFirst && angLast > 0.1,
				Detail: fmt.Sprintf("t̄/n from %s (n=%d) to %s (n=%d)",
					f3(angFirst), ns[0], f3(angLast), ns[len(ns)-1]),
			},
			{
				Claim:  "[SM19] Ω(log n) for any states: PLL's t̄/lg n stays ≥ a positive constant",
				Pass:   minPLLRatio > 0.5,
				Detail: fmt.Sprintf("min t̄/lg n = %s across the sweep", f2(minPLLRatio)),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
