package harness

import (
	"fmt"
	"math"
	"slices"

	"popproto/internal/asciichart"
	"popproto/internal/core"
	"popproto/internal/ensemble"
	"popproto/internal/registry"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// The election-time rows: every cell is a plain registry spec, measured
// as an ensemble on Config.Engine.

// table1Names maps registry keys to the display names Table 1 uses.
var table1Names = map[string]string{
	"pll":     "PLL (this work)",
	"pll-sym": "PLL symmetric (§4)",
	"angluin": "Angluin et al. 2006",
	"lottery": "Lottery (Ali+17 style)",
	"maxid":   "MaxID (MST18 style)",
}

// electionEntries are Table 1's contenders: every election entry of the
// protocol registry (the epidemic coverage workload is not one), so
// adding a protocol to the registry adds its Table 1 row.
func electionEntries() []registry.Entry {
	var entries []registry.Entry
	for _, entry := range registry.Entries() {
		if entry.Target == 1 {
			entries = append(entries, entry)
		}
	}
	return entries
}

func table1Cells(cfg Config) []ensemble.Spec {
	ns, entries := sweepSizes(cfg, false), electionEntries()
	return grid(cfg, len(entries), len(ns), reps(cfg, 20), func(i, j int) registry.Spec {
		return registry.Spec{Protocol: entries[i].Key, N: ns[j], Seed: cfg.Seed + uint64(i*100+j)}
	})
}

// checkTable1 regenerates Table 1 empirically: the states/time trade-off
// across the implemented protocols. Absolute constants differ from the
// authors' analyses; the shape — who is logarithmic, who is linear, who
// pays states for speed — is what must match.
func checkTable1(cfg Config, r *report) {
	ns, entries := sweepSizes(cfg, false), electionEntries()
	xs := floats(ns)
	tbl := table.New(append([]string{"protocol", "paper states", "paper time"}, nLabels(ns)...)...)
	expTbl := table.New("protocol", "time exponent (≈0 log, ≈1 linear)",
		"states exponent", "stabilized all runs")
	var chart []asciichart.Series
	times := map[string][]float64{}
	timeExp, stateExp := map[string]float64{}, map[string]float64{}
	allOK := make([]bool, len(entries))
	for i, entry := range entries {
		name := table1Names[entry.Key]
		if name == "" {
			name = entry.Key
		}
		cells := r.series(i, len(ns))
		row := []string{name, entry.States, entry.Time}
		states := make([]float64, len(ns))
		for j, agg := range cells {
			row = append(row, fmt.Sprintf("%s ±%s", f1(agg.MeanParallelTime), f1(ciHalf(agg))))
			states[j] = float64(entry.StateCount(ns[j], 0))
		}
		tbl.AddRow(row...)
		times[entry.Key] = meanTimes(cells)
		allOK[i] = stabilized(cells)
		timeExp[entry.Key] = stats.PowerFit(xs, times[entry.Key]).Slope
		stateExp[entry.Key] = stats.PowerFit(xs, states).Slope
		expTbl.AddRowf(name, f3(timeExp[entry.Key]), f3(stateExp[entry.Key]), allOK[i])
		chart = append(chart, asciichart.Series{Name: name, X: xs, Y: times[entry.Key]})
	}

	r.printf("Mean parallel stabilization time ± 95%% CI half-width, "+
		"%d replicates per cell (multi-core ensemble executor).\n\n%s\n%s\n", cellReps(cfg, reps(cfg, 20)), tbl, expTbl)
	r.timeChart(chart...)

	last := len(ns) - 1
	pllTime, angTime := times["pll"][last], times["angluin"][last]
	r.verdict("Table 1 row ordering: PLL (log time) beats Angluin (linear time) at scale", pllTime < angTime/2,
		"n=%d: PLL %s vs Angluin %s parallel time", ns[last], f1(pllTime), f1(angTime))
	r.verdict("PLL time grows logarithmically (exponent ≈ 0)", timeExp["pll"] < pick(cfg, 0.35, 0.65),
		"exponent %s", f3(timeExp["pll"]))
	r.verdict("Angluin time grows linearly (exponent ≈ 1, Ω(n) by [DS18])", timeExp["angluin"] > pick(cfg, 0.75, 0.6),
		"exponent %s", f3(timeExp["angluin"]))
	r.verdict("MaxID buys O(log n) time with polynomial states ([MST18] row shape)",
		timeExp["maxid"] < pick(cfg, 0.35, 0.65) && stateExp["maxid"] > 1.5,
		"time exponent %s, states exponent %s", f3(timeExp["maxid"]), f3(stateExp["maxid"]))
	r.verdict("PLL states grow sub-polynomially (O(log n), Lemma 3)", stateExp["pll"] < 0.3,
		"states exponent %s", f3(stateExp["pll"]))
	r.verdict("every protocol elected exactly one leader in every run", !slices.Contains(allOK, false),
		"stabilization flags %v", allOK)
}

func nLabels(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("t̄(n=%d)", n)
	}
	return out
}

func table2Cells(cfg Config) []ensemble.Spec {
	ns := sweepSizes(cfg, false)
	return grid(cfg, 2, len(ns), reps(cfg, 20), func(s, i int) registry.Spec {
		return [2]registry.Spec{
			{Protocol: "angluin", N: ns[i], Seed: cfg.Seed + uint64(i)},
			{Protocol: "pll", N: ns[i], Seed: cfg.Seed + uint64(i) + 7_777},
		}[s]
	})
}

// checkTable2 checks the measurements for consistency with the lower
// bounds of Table 2. Lower bounds cannot be "reproduced" by running code,
// but measured times must respect them: a constant-state protocol must
// pay Ω(n) ([DS18]), and no protocol — PLL included — may beat Ω(log n)
// ([SM19], and the coupon-collector argument of the introduction).
func checkTable2(cfg Config, r *report) {
	ns := sweepSizes(cfg, false)
	angs, plls := meanTimes(r.series(0, len(ns))), meanTimes(r.series(1, len(ns)))
	tbl := table.New("n", "Angluin t̄", "t̄ / n (DS18 wants ≳ const)",
		"PLL t̄", "t̄ / lg n (SM19 wants ≳ const)")
	var angPerN []float64
	minPLLRatio := math.Inf(1)
	for i, n := range ns {
		lg := float64(core.CeilLog2(n))
		tbl.AddRowf(n, f1(angs[i]), f3(angs[i]/float64(n)), f1(plls[i]), f2(plls[i]/lg))
		angPerN = append(angPerN, angs[i]/float64(n))
		minPLLRatio = math.Min(minPLLRatio, plls[i]/lg)
	}
	r.printf("%d replicates per cell (multi-core ensemble executor); "+
		"t̄ is mean parallel stabilization time.\n\n%s\nA lower bound is *violated* only if "+
		"the normalized time decays toward 0 as n grows.\n", cellReps(cfg, reps(cfg, 20)), tbl)

	// DS18 consistency: time/n stays bounded away from zero (does not
	// decay with n). SM19 consistency: time/lg n bounded below by a
	// positive constant.
	angFirst, angLast := angPerN[0], angPerN[len(angPerN)-1]
	r.verdict("[DS18] Ω(n) for constant states: Angluin's t̄/n does not decay", angLast > 0.5*angFirst && angLast > 0.1,
		"t̄/n from %s (n=%d) to %s (n=%d)", f3(angFirst), ns[0], f3(angLast), ns[len(ns)-1])
	r.verdict("[SM19] Ω(log n) for any states: PLL's t̄/lg n stays ≥ a positive constant", minPLLRatio > 0.5,
		"min t̄/lg n = %s across the sweep", f2(minPLLRatio))
}

// theorem1Cells are the sweep cells of the headline result: PLL over the
// n grid, one base seed for every cell (what /v1/sweeps runs for
// protocols [pll] with that seed).
func theorem1Cells(cfg Config) []ensemble.Spec {
	ns := sweepSizes(cfg, true)
	return grid(cfg, 1, len(ns), reps(cfg, 150), func(_, j int) registry.Spec {
		return registry.Spec{Protocol: "pll", N: ns[j], Seed: cfg.Seed}
	})
}

// checkTheorem1 reproduces the headline result: PLL stabilizes in
// O(log n) expected parallel time (Theorem 1). The growth shape is the
// sweep's scaling summary: the log-log power exponent (logarithmic data
// has exponent near 0, linear data near 1) and the direct a·lg n + b fit.
func checkTheorem1(cfg Config, r *report) {
	ns := sweepSizes(cfg, true)
	rep := cellReps(cfg, reps(cfg, 150))
	tbl := table.New("n", "m", "mean parallel time", "95% CI", "median", "p90", "mean / lg n")
	ratioLo, ratioHi := math.Inf(1), math.Inf(-1)
	for i, agg := range r.cells {
		lg := float64(core.CeilLog2(ns[i]))
		tbl.AddRowf(ns[i], core.NewParams(ns[i]).M, f2(agg.MeanParallelTime),
			fmt.Sprintf("[%s, %s]", f2(agg.CILo), f2(agg.CIHi)),
			f2(agg.P50), f2(agg.P90), f2(agg.MeanParallelTime/lg))
		ratioLo = math.Min(ratioLo, agg.MeanParallelTime/lg)
		ratioHi = math.Max(ratioHi, agg.MeanParallelTime/lg)
	}
	xs, ys := floats(ns), meanTimes(r.cells)
	power, fit := stats.PowerFit(xs, ys).Slope, stats.FitLogX(xs, ys)

	r.printf("%d replicates per size (one sweep cell per n, each a multi-core ensemble); "+
		"times in parallel time (steps / n).\n\n%s", rep, tbl)
	r.printf("\nThe distribution is bimodal: most runs finish during QuickElimination " +
		"(the low median), while runs whose lottery ties carry into the Tournament epochs " +
		"(which open after ≈ cmax/2 = 20.5·m parallel time) populate the slow mode — still " +
		"Θ(log n), as the fits confirm.\n")
	r.printf("\nLog-log power fit: time ∝ n^%s — logarithmic growth shows as exponent ≈ 0, linear as ≈ 1.\n", f3(power))
	r.printf("Direct fit: time = %s·lg n %+.2f (R² %s).\n\n", f2(fit.Slope), fit.Intercept, f3(fit.R2))
	r.timeChart(asciichart.Series{Name: "PLL mean stabilization time", X: xs, Y: ys})

	r.verdict("every run elects exactly one leader (Theorem 1, probability 1)", stabilized(r.cells),
		"%d/%d sizes with all %d replicates stabilized", len(ns), len(ns), rep)
	r.verdict("expected time grows logarithmically, not polynomially (Theorem 1)", power < pick(cfg, 0.35, 0.65),
		"log-log exponent %s (linear time would give ≈ 1)", f3(power))
	if !cfg.Quick {
		// At smoke-test scale the sweep is too narrow for the band to
		// carry signal; the claim is only testable at full scale. The
		// check is a flat ratio band: time/lg n confined to a narrow
		// constant range across a 64× range of n — a robust version of
		// "time = Θ(lg n)" that tolerates the bimodal sampling noise.
		r.verdict("time per lg n is a stable constant across the sweep", ratioHi < 2*ratioLo,
			"mean/lg n within [%s, %s]; direct fit a = %s, R² = %s", f2(ratioLo), f2(ratioHi), f2(fit.Slope), f3(fit.R2))
	}
}

func symmetricCells(cfg Config) []ensemble.Spec {
	ns := pick(cfg, []int{256, 512, 1024, 2048, 4096}, []int{128, 512, 2048})
	return grid(cfg, 2, len(ns), pick(cfg, 30, 10), func(s, i int) registry.Spec {
		return [2]registry.Spec{
			{Protocol: "pll", N: ns[i], Seed: cfg.Seed + uint64(i)},
			{Protocol: "pll-sym", N: ns[i], Seed: cfg.Seed + uint64(i) + 31},
		}[s]
	})
}

// checkSymmetric compares the Section 4 symmetric variant against the
// asymmetric protocol: both must elect in every run, and the symmetric
// version must pay only a constant factor ("no harmful influence on the
// analysis of stabilization time, at least asymptotically").
func checkSymmetric(cfg Config, r *report) {
	ns := pick(cfg, []int{256, 512, 1024, 2048, 4096}, []int{128, 512, 2048})
	rep := cellReps(cfg, pick(cfg, 30, 10))
	xs, asym, sym := floats(ns), meanTimes(r.series(0, len(ns))), meanTimes(r.series(1, len(ns)))
	tbl := table.New("n", "asym t̄", "sym t̄", "ratio")
	for i, n := range ns {
		tbl.AddRowf(n, f1(asym[i]), f1(sym[i]), f2(sym[i]/asym[i]))
	}
	symPower := stats.PowerFit(xs, sym).Slope
	lastRatio := sym[len(sym)-1] / asym[len(asym)-1]

	r.printf("%d repetitions per cell; t̄ is mean parallel stabilization time.\n\n%s\n", rep, tbl)
	r.timeChart(asciichart.Series{Name: "PLL (asymmetric)", X: xs, Y: asym},
		asciichart.Series{Name: "PLL symmetric (§4)", X: xs, Y: sym})

	r.verdict("the symmetric variant elects exactly one leader in every run", stabilized(r.cells),
		"%d sizes × %d runs", len(ns), rep)
	r.verdict("symmetric time stays logarithmic (Section 4: no asymptotic harm)", symPower < pick(cfg, 0.45, 0.8),
		"log-log exponent %s", f3(symPower))
	r.verdict("the overhead is a modest constant factor", lastRatio < pick(cfg, 10.0, 20.0),
		"sym/asym ratio %s at n=%d", f2(lastRatio), ns[len(ns)-1])
}
