package harness

import (
	"math"

	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/rng"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// flipTrace is a recorded stream of QuickElimination coin flips: +1 heads,
// 0 tails, in observation order, plus the per-leader level reached when
// the leader stopped flipping (its s_v of the lottery game).
type flipTrace struct {
	bits   []int
	levels []int
}

// traceAsymmetricFlips drives the asymmetric protocol with an external
// pair sampler so each interaction's participants are known, and records
// every QuickElimination flip: a not-done epoch-1 leader meeting a
// follower flips heads as initiator and tails as responder (§3.2.3).
// A pristine X partner counts as a follower: lines 1–6 convert it before
// the module runs, so the flip fires in the same interaction — omitting
// those flips would bias the recorded sample toward late (high-level)
// tails, because X partners are plentiful only early in the run.
func traceAsymmetricFlips(n int, steps uint64, seed uint64) flipTrace {
	p := core.NewForN(n)
	sim := pp.NewSimulator[core.State](p, n, seed)
	r := rng.New(seed ^ 0xc0111)
	var tr flipTrace
	for s := uint64(0); s < steps; s++ {
		i, j := r.Pair(n)
		si, sj := sim.State(i), sim.State(j)
		isFlip := func(l, f core.State) bool {
			return l.Leader && l.Status == core.StatusA && !l.Done && l.Epoch == 1 &&
				f.Epoch == 1 && (f.Status == core.StatusX || !f.Leader)
		}
		switch {
		case isFlip(si, sj):
			tr.bits = append(tr.bits, 1) // initiator ⇒ heads
		case isFlip(sj, si):
			tr.bits = append(tr.bits, 0) // responder ⇒ tails
			tr.levels = append(tr.levels, int(sj.LevelQ))
		}
		sim.Interact(i, j)
	}
	return tr
}

// traceSymmetricFlips does the same for the symmetric variant, where a
// flip is a leader meeting an F0 (heads) or F1 (tails) coin provider.
func traceSymmetricFlips(n int, steps uint64, seed uint64) flipTrace {
	p := core.NewSymmetricForN(n)
	sim := pp.NewSimulator[core.SymState](p, n, seed)
	r := rng.New(seed ^ 0x5e111)
	var tr flipTrace
	record := func(l, f core.SymState) {
		if !l.Leader || l.Status != core.StatusA || l.Done || l.Epoch != 1 || f.Leader || f.Epoch != 1 {
			return
		}
		switch f.Coin {
		case core.CoinF0:
			tr.bits = append(tr.bits, 1)
		case core.CoinF1:
			tr.bits = append(tr.bits, 0)
			tr.levels = append(tr.levels, int(l.LevelQ))
		}
	}
	for s := uint64(0); s < steps; s++ {
		i, j := r.Pair(n)
		record(sim.State(i), sim.State(j))
		record(sim.State(j), sim.State(i))
		sim.Interact(i, j)
	}
	return tr
}

func lag1Autocorr(bits []int) float64 {
	if len(bits) < 3 {
		return 0
	}
	mean := 0.0
	for _, b := range bits {
		mean += float64(b)
	}
	mean /= float64(len(bits))
	var num, den float64
	for i := 0; i < len(bits)-1; i++ {
		num += (float64(bits[i]) - mean) * (float64(bits[i+1]) - mean)
	}
	for _, b := range bits {
		den += (float64(b) - mean) * (float64(b) - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// geometricGOF bins the per-leader stop levels and chi-square-tests them
// against shift + Geometric(1/2), the s_v distribution of the lottery
// game. In the asymmetric protocol the shift is 1: a candidate is minted
// precisely because its first interaction was as initiator, so its first
// flip is a certain head (levelQ starts at 1). In the symmetric variant
// candidates are minted by the X×Y dance without any coin, so the shift
// is 0.
func geometricGOF(levels []int, shift int) stats.ChiSquare {
	const bins = 6
	obs := make([]float64, bins)
	for _, l := range levels {
		k := l - shift
		if k < 0 {
			k = 0 // impossible under the model; lands in bin 0 and fails loudly
		}
		if k >= bins-1 {
			obs[bins-1]++
		} else {
			obs[k]++
		}
	}
	exp := make([]float64, bins)
	total := float64(len(levels))
	for k := 0; k < bins-1; k++ {
		exp[k] = total * stats.GeometricPMF(0.5, k)
	}
	exp[bins-1] = total * (1 - stats.GeometricCDF(0.5, bins-2))
	return stats.ChiSquareGOF(obs, exp)
}

// checkCoins validates the paper's two coin-flip constructions: the
// scheduler-role coins of §3.2.3 (fair and independent because a flip
// happens only when a leader meets a follower) and the F0/F1 coins of §4
// (fair because |F0| = |F1| is invariant).
func checkCoins(cfg Config, r *report) {
	n, repCount := pick(cfg, 512, 128), pick(cfg, 30, 10)
	stepsPerRun := uint64(6 * n * core.CeilLog2(n))

	// audit pools the flips of repCount traced runs: the fairness test,
	// the mean lag-1 autocorrelation and the lottery-level test.
	type audit struct {
		flips, heads int
		fair, geo    stats.ChiSquare
		corr         float64
	}
	collect := func(trace func(int, uint64, uint64) flipTrace, shift int) (a audit) {
		var levels []int
		var corrSum float64
		runs := 0
		for rep := 0; rep < repCount; rep++ {
			tr := trace(n, stepsPerRun, cfg.Seed+uint64(rep)*7919)
			a.flips += len(tr.bits)
			for _, b := range tr.bits {
				a.heads += b
			}
			levels = append(levels, tr.levels...)
			if len(tr.bits) > 10 {
				corrSum += lag1Autocorr(tr.bits)
				runs++
			}
		}
		if runs > 0 {
			a.corr = corrSum / float64(runs)
		}
		half := float64(a.flips) / 2
		a.fair = stats.ChiSquareGOF([]float64{float64(a.heads), float64(a.flips - a.heads)}, []float64{half, half})
		a.geo = geometricGOF(levels, shift)
		return a
	}
	asym := collect(traceAsymmetricFlips, 1) // birth head: s_v = 1 + Geom(1/2)
	sym := collect(traceSymmetricFlips, 0)   // no birth coin: s_v = Geom(1/2)

	tbl := table.New("construction", "flips observed", "heads fraction",
		"fairness χ² p", "lag-1 autocorr", "s_v ~ Geometric(1/2) χ² p")
	for _, row := range []struct {
		name string
		a    audit
	}{{"scheduler roles (§3.2.3)", asym}, {"F0/F1 coins (§4)", sym}} {
		tbl.AddRowf(row.name, row.a.flips, f4(float64(row.a.heads)/float64(row.a.flips)),
			f3(row.a.fair.P), f4(row.a.corr), f3(row.a.geo.P))
	}
	r.printf("n = %d, %d instrumented runs per construction, %d steps each.\n\n%s", n, repCount, stepsPerRun, tbl)
	r.printf("\nThe geometric test checks the per-leader heads-before-first-tail count s_v, the random variable of the §3.1.1 lottery game.\n")

	fair := func(g stats.ChiSquare) bool { return g.P > 0.001 }
	uncorrelated := func(c float64) bool { return math.Abs(c) < pick(cfg, 0.05, 0.12) }
	r.verdict("scheduler-role flips are fair (§3.2.3)", fair(asym.fair), "%s", asym.fair)
	r.verdict("scheduler-role flips show no serial correlation", uncorrelated(asym.corr),
		"mean lag-1 autocorrelation %s", f4(asym.corr))
	r.verdict("per-leader lottery levels follow Geometric(1/2) (§3.1.1)", fair(asym.geo), "%s", asym.geo)
	r.verdict("symmetric F0/F1 flips are fair (§4)", fair(sym.fair), "%s", sym.fair)
	r.verdict("symmetric flips show no serial correlation", uncorrelated(sym.corr),
		"mean lag-1 autocorrelation %s", f4(sym.corr))
	r.verdict("symmetric lottery levels follow Geometric(1/2)", fair(sym.geo), "%s", sym.geo)
}
