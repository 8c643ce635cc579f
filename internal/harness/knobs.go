package harness

import (
	"fmt"
	"math"

	"popproto/internal/core"
	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/rng"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// The rows that drive PLL outside its normal regime: BackUp from
// constructed configurations, and the ablation of its design knobs.

// buildBstart constructs a configuration in the spirit of Definition 3
// (Bstart): every agent in the fourth epoch with color 0, half candidates
// and half timers, exactly `leaders` leaders, every levelB ≤ 1 and timer
// counts randomized to avoid artificial phase alignment.
func buildBstart(p *core.PLL, sim *pp.Simulator[core.State], leaders int, seed uint64) {
	n := sim.N()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		var s core.State
		if i < n/2 {
			s = core.State{
				Status: core.StatusA, Epoch: 4, Init: 4,
				Leader: i < leaders,
				LevelB: uint16(r.Intn(2)),
			}
		} else {
			s = core.State{
				Status: core.StatusB, Epoch: 4, Init: 4,
				Count: uint16(r.Intn(p.Params().CMax)),
			}
		}
		sim.SetState(i, s)
	}
}

// checkBackup exercises the BackUp safety net in isolation: from Bstart
// configurations with many surviving leaders it must elect within
// O(log² n) parallel time in expectation (Lemma 12), and with a broken
// clock (undersized m, forced desynchronization) it must still elect —
// the paper's probability-1 guarantee (Lemmas 9, 10).
func checkBackup(cfg Config, r *report) {
	// BackUp resolves residual leaders by the faster of two mechanisms:
	// the levelB race (Θ(log² n)) and direct duels (Θ(n) for the last
	// pair). The duel dominates below n ≈ 2k, so the sweep must reach
	// past the crossover for the Lemma 12 shape to be visible.
	ns := pick(cfg, []int{1024, 2048, 4096, 8192, 16384}, []int{512, 1024, 2048})
	repCount := pick(cfg, 25, 8)
	sums, allOK := timeGrid(cfg, ns, repCount, func(p *core.PLL, n int, seed uint64) (float64, bool) {
		sim := pp.NewSimulator[core.State](p, n, seed)
		buildBstart(p, sim, max(2, n/8), seed^0xb5)
		if sim.Leaders() != max(2, n/8) {
			panic("backup experiment: Bstart construction broken")
		}
		_, ok := sim.RunUntilLeaders(1, 100*registry.LogBudget(n))
		return sim.ParallelTime(), ok
	})
	tbl := table.New("n", "initial leaders", "mean parallel time", "per lg² n")
	ys := make([]float64, len(ns))
	for i, s := range sums {
		lg := float64(core.CeilLog2(ns[i]))
		tbl.AddRowf(ns[i], max(2, ns[i]/8), f1(s.Mean), f3(s.Mean/(lg*lg)))
		ys[i] = s.Mean
	}
	power := stats.PowerFit(floats(ns), ys).Slope

	// Forced desynchronization: m = 1 violates m ≥ log₂ n, the clock
	// ticks too fast for any epidemic to finish, and the run leans on the
	// BackUp duel fallback. It must still elect.
	desyncN, desyncReps := pick(cfg, 128, 64), reps(cfg, 20)
	desyncProto := core.New(core.NewParamsUnchecked(desyncN, 1))
	desyncTimes := make([]float64, 0, desyncReps)
	desyncOK := true
	// "pll" is in the catalog, so resolution cannot fail.
	desync, _ := registry.ResolveEngine(registry.Spec{Protocol: "pll", N: desyncN, Engine: cfg.Engine})
	replicate(cfg, cfg.Seed+999, desyncReps, func(seed uint64) func() {
		sim := pp.NewRunner[core.State](desync.Engine, desyncProto, desyncN, seed)
		_, ok := sim.RunUntilLeaders(1, uint64(desyncN)*uint64(desyncN)*uint64(desyncN)*8)
		t := sim.ParallelTime()
		return func() {
			desyncTimes = append(desyncTimes, t)
			desyncOK = desyncOK && ok
		}
	})
	ds := stats.Summarize(desyncTimes)

	lastN, lastTime := ns[len(ns)-1], ys[len(ys)-1]
	duelReference := float64(lastN) / 2 // the pure-duel expectation for the last pair
	r.printf("Bstart runs: %d repetitions per size, n/8 initial leaders, all agents epoch 4.\n\n%s", repCount, tbl)
	r.printf("\nLog-log exponent of the Bstart election time: %s (O(log² n) shows as ≈ 0; pure duels as ≈ 1). "+
		"Election is the faster of the levelB race and direct duels; the race caps the duel's Θ(n) beyond the crossover.\n\n",
		f3(power))
	r.printf("Forced desynchronization (n = %d, m = 1, cmax = 41): mean election time %s parallel (%d runs).\n",
		desyncN, f1(ds.Mean), desyncReps)

	r.verdict("BackUp elects exactly one leader from every Bstart configuration", allOK,
		"all %d×%d runs", len(ns), repCount)
	r.verdict("Bstart election grows sub-linearly (Lemma 12: O(log² n) caps the duel path)",
		power < pick(cfg, 0.55, 1.1), "log-log exponent %s", f3(power))
	r.verdict("the levelB race beats pure duels at scale (Lemma 12's mechanism is active)",
		cfg.Quick || lastTime < 0.4*duelReference,
		"t̄(n=%d) = %s vs duel reference n/2 = %s", lastN, f1(lastTime), f1(duelReference))
	r.verdict("election succeeds even with a deliberately broken clock (m = 1)", desyncOK,
		"mean %s parallel time over %d runs", f1(ds.Mean), desyncReps)
}

// ablationScale returns the ablation's population, repetition count and
// m sweep: the paper's m and two oversized ones.
func ablationScale(cfg Config) (n, repCount int, ms []int) {
	n = pick(cfg, 2048, 512)
	m := core.NewParams(n).M
	return n, pick(cfg, 150, 40), []int{m, 2 * m, 4 * m}
}

func ablationCells(cfg Config) []ensemble.Spec {
	n, repCount, ms := ablationScale(cfg)
	return grid(cfg, 1, len(ms), repCount, func(_, j int) registry.Spec {
		return registry.Spec{Protocol: "pll", N: n, M: ms[j], Seed: cfg.Seed + uint64(ms[j])*17}
	})
}

// checkAblation measures PLL's two design knobs.
//
// Φ (§3.2.4): the paper runs the Tournament twice with Φ = ⌈(2/3)·lg m⌉
// bits instead of once with ⌈lg m⌉ bits, trading a constant factor of
// time for a strictly smaller rand×index state product. The ablation
// sweeps Φ and measures how often the election still needs the BackUp
// safety net (residual ties) against the per-agent state cost.
//
// m: the knowledge parameter trades clock period (cmax = 41m) against
// state count; oversizing m keeps correctness but slows the epoch
// pipeline linearly in m, exactly as the cmax/2 tick period predicts.
// The m sweep is the row's ensemble cells.
func checkAblation(cfg Config, r *report) {
	n, repCount, ms := ablationScale(cfg)
	base := core.NewParams(n)
	lgm := int(math.Ceil(math.Log2(float64(base.M))))

	phis := []int{0, 1, base.Phi, lgm, 2 * lgm}
	phiTbl := table.New("Φ", "rand×index states 2^Φ(Φ+1)",
		"runs needing BackUp", "residual-tie rate", "mean time")
	var tieRates []float64
	for _, phi := range phis {
		params := base.WithPhi(phi)
		proto := core.New(params)
		needBackup := 0
		times := make([]float64, 0, repCount)
		replicate(cfg, cfg.Seed+uint64(phi), repCount, func(seed uint64) func() {
			sim := pp.NewSimulator[core.State](proto, n, seed)
			// Watch for two independent events: stabilization (one
			// leader) and the first epoch-4 agent. More than one leader
			// at the latter means the tournaments failed to finish the
			// job and the BackUp safety net is needed.
			stabTime, residual, residualKnown := -1.0, false, false
			runUntil(sim, uint64(n/2), 100*registry.LogBudget(n), func(s pp.Runner[core.State]) bool {
				if stabTime < 0 && s.Leaders() == 1 {
					stabTime = s.ParallelTime()
				}
				if !residualKnown && count(s, inEpoch4) > 0 {
					residualKnown, residual = true, s.Leaders() > 1
				}
				return stabTime >= 0 && residualKnown
			})
			if stabTime < 0 {
				stabTime = sim.ParallelTime() // budget exhausted; report as-is
			}
			return func() {
				times = append(times, stabTime)
				if residual {
					needBackup++
				}
			}
		})
		rate := float64(needBackup) / float64(repCount)
		tieRates = append(tieRates, rate)
		phiTbl.AddRowf(phi, params.RandSpace()*(phi+1), fmt.Sprintf("%d/%d", needBackup, repCount),
			f3(rate), f1(stats.Mean(times)))
	}

	mTbl := table.New("m", "cmax", "Table 3 states", "mean time", "time / m")
	mTimes := meanTimes(r.cells)
	for j, m := range ms {
		params, err := core.NewParamsWithM(n, m)
		if err != nil {
			panic(err)
		}
		mTbl.AddRowf(m, params.CMax, params.StateSpaceSize(), f1(mTimes[j]), f2(mTimes[j]/float64(m)))
	}

	r.printf("n = %d, %d runs per configuration.\n\n", n, repCount)
	r.printf("**Φ sweep** (paper's choice Φ = %d, i.e. ⌈2/3·lg m⌉ for m = %d):\n\n%s", base.Phi, base.M, phiTbl)
	r.printf("\nWider nonces leave fewer ties to the BackUp safety net but pay " +
		"2^Φ(Φ+1) states; Φ = 0 disables the Tournament entirely and leans fully on BackUp.\n\n")
	r.printf("**m sweep** (paper requires m ≥ lg n = %d and m = Θ(log n); %d runs per m):\n\n%s",
		core.CeilLog2(n), cellReps(cfg, repCount), mTbl)
	r.printf("\nOversizing m keeps the election correct but slows the epoch clock " +
		"(cmax = 41m) — the slow mode of the time distribution scales with m, which is why " +
		"the paper insists on m = Θ(log n) rather than just m ≥ log₂ n.\n")

	// Verdicts: tie rate must be non-increasing in Φ overall (more nonce
	// bits, fewer ties), and the paper's Φ (phis[2]) must already push the
	// residual-tie rate low.
	r.verdict("wider tournaments leave fewer residual ties (monotone trend across the sweep)",
		tieRates[len(tieRates)-1] <= tieRates[0]+0.02,
		"tie rate %s at Φ=0 vs %s at Φ=%d", f3(tieRates[0]), f3(tieRates[len(tieRates)-1]), phis[len(phis)-1])
	r.verdict("the paper's Φ already makes BackUp a rare path (Lemma 8 regime)", tieRates[2] < pick(cfg, 0.25, 0.4),
		"residual-tie rate %s at Φ=%d", f3(tieRates[2]), base.Phi)
	r.verdict("oversizing m slows the election roughly linearly in m (clock period cmax = 41m)",
		mTimes[len(mTimes)-1] > 1.5*mTimes[0],
		"mean time %s at m=%d vs %s at m=%d", f1(mTimes[0]), ms[0], f1(mTimes[len(mTimes)-1]), ms[len(ms)-1])
}
