package harness

import (
	"fmt"
	"math"

	"popproto/internal/asciichart"
	"popproto/internal/core"
	"popproto/internal/epidemic"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// The instrumented rows: each observes PLL's internals (census
// observables at check points, traces, closed-form state counts) that an
// ensemble's stabilization times do not carry.

func inEpoch4(s core.State) bool { return s.Epoch == 4 }

// checkTable3 regenerates Table 3: the variable layout of PLL, the
// per-group additional-variable domains, and the Lemma 3 state count —
// both the closed-form Table 3 accounting and the distinct states
// actually observed in execution.
func checkTable3(cfg Config, r *report) {
	// The static layout for a representative n.
	n := pick(cfg, 1024, 256)
	params := core.NewParams(n)
	layout := table.New("group", "additional variables", "domain sizes")
	layout.AddRow("all agents", "leader, tick, status, epoch, init, color",
		"2 · 2 · 3 · 4 · 4 · 3")
	layout.AddRow("V_B", "count ∈ {0..cmax−1}", fmt.Sprintf("cmax = 41m = %d", params.CMax))
	layout.AddRow("V_A∩V_1", "levelQ ∈ {0..lmax}, done",
		fmt.Sprintf("(lmax+1) · 2 = %d · 2", params.LMax+1))
	layout.AddRow("V_A∩(V_2∪V_3)", "rand ∈ {0..2^Φ−1}, index ∈ {0..Φ}",
		fmt.Sprintf("2^Φ · (Φ+1) = %d · %d", params.RandSpace(), params.Phi+1))
	layout.AddRow("V_A∩V_4", "levelB ∈ {0..lmax}", fmt.Sprintf("lmax+1 = %d", params.LMax+1))
	r.printf("Variable layout for n = %d (m = %d):\n\n%s\n", n, params.M, layout)

	// State-count growth across n, plus observed distinct states from an
	// instrumented run.
	growth := table.New("n", "m", "Table 3 state count |Q|", "|Q| / m",
		"distinct states observed", "observed ≤ |Q|")
	var ms, sizes []float64
	withinBound := true
	for i, nn := range pick(cfg, []int{256, 1024, 4096, 16384}, []int{64, 256, 1024}) {
		p := core.NewForN(nn)
		m, size := p.Params().M, p.Params().StateSpaceSize()
		sim := pp.NewSimulator[core.State](p, nn, cfg.Seed+uint64(i))
		sim.TrackStates()
		sim.RunUntilLeaders(1, registry.LogBudget(nn))
		sim.RunSteps(uint64(20 * nn)) // explore the stable regime too
		observed := sim.DistinctStates()
		withinBound = withinBound && observed <= size
		growth.AddRowf(nn, m, size, f1(float64(size)/float64(m)), observed, observed <= size)
		ms = append(ms, float64(m))
		sizes = append(sizes, float64(size))
	}
	fit := stats.LinearFit(ms, sizes)
	r.printf("State count growth (Lemma 3):\n\n%s\n", growth)
	r.printf("Linear fit of |Q| against m: %s — Lemma 3's O(log n) is linearity in m.\n", fit)

	r.verdict("Lemma 3: the state count is linear in m (hence O(log n))", fit.R2 > 0.999,
		"|Q| = %s·m %+.0f, R² = %s", f1(fit.Slope), fit.Intercept, f4(fit.R2))
	r.verdict("observed distinct states never exceed the Table 3 count", withinBound, "see table")
}

// checkLemma2 measures one-way epidemic completion against the tail bound
// of Lemma 2: Pr[I_{V'}(2⌈n/n'⌉t) ≠ V'] ≤ n·e^{−t/n}, for the whole
// population and for sub-populations (the paper applies it to V_A with
// |V_A| ≥ n/2).
func checkLemma2(cfg Config, r *report) {
	n, repCount := pick(cfg, 4096, 512), pick(cfg, 2000, 300)
	// t grid in units of n·ln n (the bound becomes nontrivial past
	// t = n ln n).
	tFactors := []float64{1.2, 1.5, 2.0, 2.5, 3.0}

	tbl := table.New("n' (sub-population)", "t / (n ln n)", "step budget 2⌈n/n'⌉t",
		"empirical Pr[unfinished]", "Lemma 2 bound")
	holds := true
	var chartEmp, chartBound []float64
	for si, sub := range []int{n, n / 2, n / 4} {
		times := epidemic.CompletionTimes(n, sub, repCount, cfg.Seed+uint64(si))
		for _, tf := range tFactors {
			t := tf * float64(n) * math.Log(float64(n))
			budget := epidemic.Lemma2Steps(n, sub, t)
			bound := epidemic.Lemma2Bound(n, t)
			violations := 0
			for _, ct := range times {
				if ct > budget {
					violations++
				}
			}
			emp := float64(violations) / float64(repCount)
			holds = holds && (bound >= 1 || emp <= bound+0.02)
			tbl.AddRowf(sub, f2(tf), budget, f4(emp), f4(bound))
			if sub == n {
				chartEmp = append(chartEmp, emp)
				chartBound = append(chartBound, bound)
			}
		}
	}

	r.printf("n = %d, %d epidemics per sub-population size (geometric-jump simulator, distributionally exact).\n\n%s\n",
		n, repCount, tbl)
	r.chart(asciichart.Options{XLabel: "t / (n ln n)", YLabel: "probability"},
		asciichart.Series{Name: "empirical Pr[unfinished] (n'=n)", X: tFactors, Y: chartEmp},
		asciichart.Series{Name: "Lemma 2 bound n·e^{−t/n}", X: tFactors, Y: chartBound})

	r.verdict("Lemma 2: empirical violation probability ≤ n·e^{−t/n} wherever the bound is nontrivial", holds,
		"see table (0.02 Monte-Carlo slack)")
}

// checkLemma4 verifies Lemma 4: once every agent has been assigned a
// status, |V_A| ≥ n/2, |V_F| ≥ n/2 and |V_B| ≥ 1 — in every run, because
// the lemma is deterministic given full assignment.
func checkLemma4(cfg Config, r *report) {
	n, repCount := pick(cfg, 2048, 256), pick(cfg, 200, 30)
	p := core.NewForN(n)
	status := func(s core.State) core.Status { return s.Status }

	minA, minB, minF := n, n, n
	violations := 0
	assignTimes := make([]float64, 0, repCount)
	replicate(cfg, cfg.Seed, repCount, func(seed uint64) func() {
		sim := pp.NewSimulator[core.State](p, n, seed)
		runUntil(sim, uint64(n), math.MaxUint64, func(s pp.Runner[core.State]) bool {
			return pp.CensusBy(s, status)[core.StatusX] == 0
		})
		groups := pp.CensusBy(sim, status)
		a, b, f := groups[core.StatusA], groups[core.StatusB], n-sim.Leaders()
		t := sim.ParallelTime()
		return func() {
			assignTimes = append(assignTimes, t)
			minA = min(minA, a)
			minB = min(minB, b)
			minF = min(minF, f)
			if a < n/2 || b < 1 || f < n/2 {
				violations++
			}
		}
	})

	tbl := table.New("quantity", "paper bound", "worst observed", "holds")
	tbl.AddRowf("|V_A|", fmt.Sprintf("≥ n/2 = %d", n/2), minA, minA >= n/2)
	tbl.AddRowf("|V_B|", "≥ 1", minB, minB >= 1)
	tbl.AddRowf("|V_F|", fmt.Sprintf("≥ n/2 = %d", n/2), minF, minF >= n/2)
	s := stats.Summarize(assignTimes)
	r.printf("n = %d, %d runs; census taken at the first configuration with V_X = ∅ (checked once per parallel time unit).\n\n%s",
		n, repCount, tbl)
	r.printf("\nParallel time to full assignment: mean %s, max %s (coupon collector, Θ(log n)).\n", f2(s.Mean), f2(s.Max))

	r.verdict("Lemma 4 bounds hold in every run", violations == 0,
		"%d/%d runs violated; minima |V_A|=%d |V_B|=%d |V_F|=%d", violations, repCount, minA, minB, minF)
}

// checkLemma6 instruments the CountUp synchronization clock. From the
// first Cstart(1)-configuration (some agent freshly wrapped to color 1):
//
//	P1: no agent gets color 2 within ⌊21 n ln n⌋ steps (w.h.p.);
//	P2: color 1 covers the population within ⌊4 n ln n⌋ steps (w.h.p.);
//	P3: the next Cstart (color 2 appears) follows within O(log n) parallel
//	    time (w.h.p.).
func checkLemma6(cfg Config, r *report) {
	n, repCount := pick(cfg, 1024, 256), pick(cfg, 100, 20)
	p := core.NewForN(n)
	nLogN := float64(n) * math.Log(float64(n))
	colored := func(s pp.Runner[core.State], color uint8) int {
		return pp.CensusBy(s, func(st core.State) bool { return st.Color == color })[true]
	}

	p1OK, p2OK, p3OK := 0, 0, 0
	var spreadTimes, nextStartTimes []float64
	replicate(cfg, cfg.Seed, repCount, func(seed uint64) func() {
		sim := pp.NewSimulator[core.State](p, n, seed)
		check := uint64(n / 2)
		// Find the first appearance of color 1 (≈ Cstart(1)).
		t1, ok := runUntil(sim, check, uint64(200*nLogN), func(s pp.Runner[core.State]) bool {
			return colored(s, 1) > 0
		})
		if !ok {
			return func() {} // counted as failure of all three
		}
		// P2: color 1 covers the population within ⌊4 n ln n⌋ steps.
		t2, covered := runUntil(sim, check, t1+uint64(4*nLogN), func(s pp.Runner[core.State]) bool {
			return colored(s, 1) == s.N()
		})
		// P1 and P3: watch for the first color-2 agent.
		t3, sawColor2 := runUntil(sim, check, t1+uint64(60*nLogN), func(s pp.Runner[core.State]) bool {
			return colored(s, 2) > 0
		})
		return func() {
			if covered {
				p2OK++
				spreadTimes = append(spreadTimes, float64(t2-t1)/float64(n))
			}
			if !sawColor2 || t3-t1 > uint64(21*nLogN) {
				p1OK++ // no early color 2 within the P1 window
			}
			if sawColor2 {
				p3OK++
				nextStartTimes = append(nextStartTimes, float64(t3-t1)/float64(n))
			}
		}
	})

	spread, next := summarizeOr(spreadTimes), summarizeOr(nextStartTimes)
	tbl := table.New("proposition", "paper claim", "success rate", "observed timing")
	tbl.AddRowf("P1", "no color 2 within ⌊21 n ln n⌋ steps (w.h.p.)",
		fmt.Sprintf("%d/%d", p1OK, repCount), "—")
	tbl.AddRowf("P2", "color covers V within ⌊4 n ln n⌋ steps (w.h.p.)",
		fmt.Sprintf("%d/%d", p2OK, repCount),
		fmt.Sprintf("spread time %s ± %s parallel", f2(spread.Mean), f2(spread.SEM())))
	tbl.AddRowf("P3", "next Cstart within O(log n) parallel time",
		fmt.Sprintf("%d/%d", p3OK, repCount),
		fmt.Sprintf("gap %s ± %s parallel (lg n = %d)", f2(next.Mean), f2(next.SEM()), core.CeilLog2(n)))
	r.printf("n = %d, %d runs, censuses every n/2 steps (granularity ≤ 0.5 parallel time).\n\n%s", n, repCount, tbl)
	r.printf("\nFor context: the count-up period cmax/2 · n = %.1f·n ln n steps, so color 2 is expected around there.\n",
		float64(p.Params().CMax)/2/math.Log(float64(n)))

	okRate := func(k int) bool { return float64(k) >= 0.9*float64(repCount) }
	r.verdict("P1 holds w.h.p.", okRate(p1OK), "%d/%d", p1OK, repCount)
	r.verdict("P2 holds w.h.p.", okRate(p2OK), "%d/%d", p2OK, repCount)
	r.verdict("P3: the clock keeps ticking every Θ(log n) parallel time",
		okRate(p3OK) && next.Mean < 60*float64(core.CeilLog2(n)),
		"%d/%d ticked; mean gap %s parallel vs lg n = %d", p3OK, repCount, f2(next.Mean), core.CeilLog2(n))
}

// checkLemma7 measures the survivor distribution of QuickElimination: at
// step ⌊21 n ln n⌋, Pr[|V_L| = i] ≤ 2^{1−i} + ε_i for every i ≥ 2, and at
// least one leader always survives.
func checkLemma7(cfg Config, r *report) {
	n, repCount := pick(cfg, 1024, 256), pick(cfg, 1000, 200)
	p := core.NewForN(n)
	horizon := uint64(math.Floor(21 * float64(n) * math.Log(float64(n))))

	survivorCounts := make(map[int]int)
	hist := stats.NewHistogram(9)
	zeroLeaderRuns, leftEpochOne, maxI := 0, 0, 0
	replicate(cfg, cfg.Seed, repCount, func(seed uint64) func() {
		sim := pp.NewSimulator[core.State](p, n, seed)
		sim.RunSteps(horizon)
		leaders := sim.Leaders()
		epochsBeyond := pp.CensusBy(sim, func(s core.State) bool { return s.Epoch > 1 })[true]
		return func() {
			survivorCounts[leaders]++
			hist.Add(leaders)
			maxI = max(maxI, leaders)
			if leaders == 0 {
				zeroLeaderRuns++
			}
			if epochsBeyond > 0 {
				leftEpochOne++
			}
		}
	})

	tbl := table.New("survivors i", "empirical Pr[|V_L| = i]", "95% Wilson upper",
		"envelope 2^{1−i} (i ≥ 2)", "within envelope")
	envelopeOK := true
	for i := 1; i <= maxI; i++ {
		emp := float64(survivorCounts[i]) / float64(repCount)
		_, hi := stats.WilsonCI(survivorCounts[i], repCount)
		if i == 1 {
			tbl.AddRowf(i, f4(emp), f4(hi), "—", "—")
			continue
		}
		env := stats.SurvivorEnvelope(i)
		// The Wilson upper confidence limit must not exceed the envelope
		// by more than the paper's ε_i slack (Σε_i = O(1/n)); we grant a
		// fixed small slack for Monte Carlo noise.
		ok := emp <= env+0.02 || hi <= env+0.05
		envelopeOK = envelopeOK && ok
		tbl.AddRowf(i, f4(emp), f4(hi), f4(env), ok)
	}
	r.printf("n = %d, %d runs, census at step ⌊21 n ln n⌋ = %d.\n\n%s", n, repCount, horizon, tbl)
	r.printf("\nSurvivor distribution (value, count, fraction):\n\n```\n%s```\n", hist.Bars(40))
	r.printf("\nRuns in which some agent had already left epoch 1: %d/%d (the lemma conditions hold w.h.p.).\n",
		leftEpochOne, repCount)

	r.verdict("Pr[|V_L| = i] ≤ 2^{1−i} + ε for every i ≥ 2 (Lemma 7)", envelopeOK, "see table")
	r.verdict("QuickElimination never eliminates all leaders", zeroLeaderRuns == 0,
		"%d/%d runs with zero leaders", zeroLeaderRuns, repCount)
	r.verdict("agents are still in epoch 1 at the horizon w.h.p. (first condition of Lemma 7's proof)",
		float64(leftEpochOne) <= 0.1*float64(repCount), "%d/%d runs had early epoch departures", leftEpochOne, repCount)
}

// checkLemma8 measures how often QuickElimination plus the two Tournament
// rounds finish the election before any agent enters the fourth epoch —
// the paper claims probability 1 − O(1/log n), which is exactly why
// BackUp contributes only O(1/log n)·O(log² n) = O(log n) to the
// expectation.
func checkLemma8(cfg Config, r *report) {
	repCount := pick(cfg, 300, 50)
	tbl := table.New("n", "runs with unique leader before epoch 4",
		"success rate", "1 − 1/lg n (scale reference)")
	var rates []float64
	pass := true
	for _, n := range pick(cfg, []int{1024, 4096}, []int{256}) {
		p := core.NewForN(n)
		successes := 0
		replicate(cfg, cfg.Seed+uint64(n), repCount, func(seed uint64) func() {
			sim := pp.NewSimulator[core.State](p, n, seed)
			_, ok := runUntil(sim, uint64(n/2), registry.LogBudget(n), func(s pp.Runner[core.State]) bool {
				return pp.CensusBy(s, inEpoch4)[true] > 0
			})
			if !ok || sim.Leaders() != 1 {
				return func() {}
			}
			return func() { successes++ }
		})
		rate := float64(successes) / float64(repCount)
		rates = append(rates, rate)
		pass = pass && rate >= pick(cfg, 0.9, 0.75)
		tbl.AddRowf(n, fmt.Sprintf("%d/%d", successes, repCount), f3(rate), f3(1-1/float64(core.CeilLog2(n))))
	}
	r.printf("%d runs per size; runs are stopped at the first epoch-4 agent (censuses every n/2 steps).\n\n%s",
		repCount, tbl)

	r.verdict("unique leader before epoch 4 w.p. 1 − O(1/log n) (Lemma 8)", pass, "success rates %v", rates)
	r.verdict("failure probability does not grow with n", len(rates) < 2 || rates[len(rates)-1] >= rates[0]-0.05,
		"rates across sizes %v", rates)
}

// timeGrid runs repCount instrumented PLL runs per n of ns (base seed
// cfg.Seed+i for the i-th n) and summarizes the parallel times run
// reports, with whether every run reported ok.
func timeGrid(cfg Config, ns []int, repCount int, run func(p *core.PLL, n int, seed uint64) (float64, bool)) ([]stats.Summary, bool) {
	sums := make([]stats.Summary, len(ns))
	allOK := true
	for i, n := range ns {
		p := core.NewForN(n)
		times := make([]float64, 0, repCount)
		replicate(cfg, cfg.Seed+uint64(i), repCount, func(seed uint64) func() {
			t, ok := run(p, n, seed)
			return func() {
				times = append(times, t)
				allOK = allOK && ok
			}
		})
		sums[i] = stats.Summarize(times)
	}
	return sums, allOK
}

// checkLemma9 measures how long the population takes to advance entirely
// into the fourth epoch — O(log n) parallel time per Lemma 9, from the
// initial configuration and regardless of election progress.
func checkLemma9(cfg Config, r *report) {
	ns, repCount := sweepSizes(cfg, true), reps(cfg, 20)
	sums, allReached := timeGrid(cfg, ns, repCount, func(p *core.PLL, n int, seed uint64) (float64, bool) {
		sim := pp.NewSimulator[core.State](p, n, seed)
		_, ok := runUntil(sim, uint64(n), 40*registry.LogBudget(n), func(s pp.Runner[core.State]) bool {
			return pp.CensusBy(s, inEpoch4)[true] == s.N()
		})
		return sim.ParallelTime(), ok
	})
	tbl := table.New("n", "mean parallel time to all-epoch-4", "95% CI", "per lg n")
	ys := make([]float64, len(ns))
	for i, s := range sums {
		lo, hi := s.CI95()
		tbl.AddRowf(ns[i], f1(s.Mean), fmt.Sprintf("[%s, %s]", f1(lo), f1(hi)), f2(s.Mean/float64(core.CeilLog2(ns[i]))))
		ys[i] = s.Mean
	}
	xs := floats(ns)
	power, logFit := stats.PowerFit(xs, ys).Slope, stats.FitLogX(xs, ys)
	r.printf("%d runs per size.\n\n%s", repCount, tbl)
	r.printf("\nLog-log exponent %s; direct fit time = %s·lg n %+.1f (R² %s).\n\n",
		f3(power), f2(logFit.Slope), logFit.Intercept, f3(logFit.R2))
	r.timeChart(asciichart.Series{Name: "time to all-epoch-4", X: xs, Y: ys})

	r.verdict("every run reached the fourth epoch", allReached, "within 40× the standard budget")
	r.verdict("epoch-progress time is O(log n) (Lemma 9)", power < pick(cfg, 0.35, 0.65), "log-log exponent %s", f3(power))
}

// checkTrajectory renders the figure the paper describes in prose but
// never plots: the anatomy of one election. It traces the leader count
// and the population's progress through the status groups and epochs over
// a representative run, annotating where each module does its work.
func checkTrajectory(cfg Config, r *report) {
	n := pick(cfg, 4096, 512)
	p := core.NewForN(n)
	// "pll" is in the catalog, so resolution cannot fail.
	spec, _ := registry.ResolveEngine(registry.Spec{Protocol: "pll", N: n, Engine: cfg.Engine})
	sim := pp.NewRunner[core.State](spec.Engine, p, n, cfg.Seed)
	census := func(pred func(core.State) bool) func(pp.Runner[core.State]) float64 {
		return func(s pp.Runner[core.State]) float64 { return float64(pp.CensusBy(s, pred)[true]) }
	}
	series := []asciichart.Series{{Name: "leaders"}, {Name: "unassigned (V_X)"}, {Name: "epoch ≥ 2"}, {Name: "epoch 4"}}
	samplers := []func(pp.Runner[core.State]) float64{
		func(s pp.Runner[core.State]) float64 { return float64(s.Leaders()) },
		census(func(s core.State) bool { return s.Status == core.StatusX }),
		census(func(s core.State) bool { return s.Epoch >= 2 }),
		census(inEpoch4),
	}
	// Sample every series at each check point, once per parallel time unit.
	_, reachedOne := runUntil(sim, uint64(n), uint64(30*core.CeilLog2(n)*n), func(s pp.Runner[core.State]) bool {
		for i, sample := range samplers {
			series[i].X = append(series[i].X, s.ParallelTime())
			series[i].Y = append(series[i].Y, sample(s))
		}
		return s.Leaders() == 1
	})
	last := func(i int) int { return int(series[i].Y[len(series[i].Y)-1]) }
	leaders, unassigned := last(0), last(1)

	r.printf("One run at n = %d (seed %d), sampled every parallel time unit.\n\n", n, cfg.Seed)
	r.printf("```\n%s```\n\n", asciichart.Plot(series,
		asciichart.Options{Width: 66, Height: 18, XLabel: "parallel time", YLabel: "agents"}))
	r.printf("Final leader count %d at t = %s parallel time; the leader count collapses "+
		"during QuickElimination (while V_X drains in the first few units), and the epoch "+
		"series step up every ≈ cmax/2 = %.1f parallel time as the count-up clock wraps.\n",
		leaders, f1(sim.ParallelTime()), float64(p.Params().CMax)/2)

	r.verdict("the run elects exactly one leader within the charted horizon", reachedOne,
		"leaders = %d at t = %s", leaders, f1(sim.ParallelTime()))
	r.verdict("every agent is assigned a status early in the run (Lemma 4 regime)", unassigned == 0,
		"|V_X| = %d at the end of the trace", unassigned)
}
