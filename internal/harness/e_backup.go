package harness

import (
	"fmt"
	"strings"

	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/rng"
	"popproto/internal/stats"
	"popproto/internal/table"
)

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

// backupExperiment exercises the BackUp safety net in isolation: from
// Bstart configurations with many surviving leaders it must elect within
// O(log² n) parallel time in expectation (Lemma 12), and with a broken
// clock (undersized m, forced desynchronization) it must still elect —
// the paper's probability-1 guarantee (Lemmas 9, 10).
func backupExperiment() Experiment {
	e := Experiment{
		ID:    "backup",
		Title: "BackUp elects from Bstart in O(log² n); desynchronized runs still elect",
		Paper: "Definition 3 and Lemmas 10–12 (plus Lemma 9's fallback)",
	}
	e.Run = func(cfg Config) Result {
		// BackUp resolves residual leaders by the faster of two
		// mechanisms: the levelB race (Θ(log² n)) and direct duels
		// (Θ(n) for the last pair). The duel dominates below n ≈ 2k, so
		// the sweep must reach past the crossover for the Lemma 12 shape
		// to be visible.
		ns := []int{1024, 2048, 4096, 8192, 16384}
		repCount := reps(cfg, 25)
		if cfg.Quick {
			ns = []int{512, 1024, 2048}
			repCount = 8
		}

		tbl := table.New("n", "initial leaders", "mean parallel time", "per lg² n")
		xs := make([]float64, 0, len(ns))
		ys := make([]float64, 0, len(ns))
		allOK := true
		for i, n := range ns {
			p := core.NewForN(n)
			leaders := max(2, n/8)
			times := make([]float64, 0, repCount)
			replicate(cfg, cfg.Seed+uint64(i), repCount, func(seed uint64) func() {
				sim := pp.NewSimulator[core.State](p, n, seed)
				buildBstart(p, sim, leaders, seed^0xb5)
				if sim.Leaders() != leaders {
					panic("backup experiment: Bstart construction broken")
				}
				_, ok := sim.RunUntilLeaders(1, 100*logBudget(n))
				t := sim.ParallelTime()
				return func() {
					times = append(times, t)
					allOK = allOK && ok
				}
			})
			s := stats.Summarize(times)
			lg := float64(core.CeilLog2(n))
			tbl.AddRowf(n, leaders, f1(s.Mean), f3(s.Mean/(lg*lg)))
			xs = append(xs, float64(n))
			ys = append(ys, s.Mean)
		}
		power := stats.PowerFit(xs, ys)

		// Forced desynchronization: m = 1 violates m ≥ log₂ n, the clock
		// ticks too fast for any epidemic to finish, and the run leans on
		// the BackUp duel fallback. It must still elect.
		desyncN := 128
		desyncReps := reps(cfg, 20)
		if cfg.Quick {
			desyncN = 64
		}
		desyncParams := core.NewParamsUnchecked(desyncN, 1)
		desyncProto := core.New(desyncParams)
		desyncTimes := make([]float64, 0, desyncReps)
		desyncOK := true
		replicate(cfg, cfg.Seed+999, desyncReps, func(seed uint64) func() {
			sim := pp.NewRunner[core.State](engineFor(cfg, desyncN), desyncProto, desyncN, seed)
			_, ok := sim.RunUntilLeaders(1, uint64(desyncN)*uint64(desyncN)*uint64(desyncN)*8)
			t := sim.ParallelTime()
			return func() {
				desyncTimes = append(desyncTimes, t)
				desyncOK = desyncOK && ok
			}
		})
		ds := stats.Summarize(desyncTimes)

		lastN := float64(ns[len(ns)-1])
		lastTime := ys[len(ys)-1]
		duelReference := lastN / 2 // the pure-duel expectation for the last pair

		var body strings.Builder
		fmt.Fprintf(&body, "Bstart runs: %d repetitions per size, n/8 initial leaders, all agents epoch 4.\n\n", repCount)
		body.WriteString(tbl.Markdown())
		fmt.Fprintf(&body, "\nLog-log exponent of the Bstart election time: %s (O(log² n) shows as ≈ 0; pure duels as ≈ 1). "+
			"Election is the faster of the levelB race and direct duels; the race caps the duel's Θ(n) beyond the crossover.\n\n",
			f3(power.Slope))
		fmt.Fprintf(&body, "Forced desynchronization (n = %d, m = 1, cmax = 41): mean election time %s parallel (%d runs).\n",
			desyncN, f1(ds.Mean), desyncReps)

		verdicts := []Verdict{
			{
				Claim:  "BackUp elects exactly one leader from every Bstart configuration",
				Pass:   allOK,
				Detail: fmt.Sprintf("all %d×%d runs", len(ns), repCount),
			},
			{
				Claim:  "Bstart election grows sub-linearly (Lemma 12: O(log² n) caps the duel path)",
				Pass:   power.Slope < pick(cfg, 0.55, 1.1),
				Detail: fmt.Sprintf("log-log exponent %s", f3(power.Slope)),
			},
			{
				Claim: "the levelB race beats pure duels at scale (Lemma 12's mechanism is active)",
				Pass:  cfg.Quick || lastTime < 0.4*duelReference,
				Detail: fmt.Sprintf("t̄(n=%d) = %s vs duel reference n/2 = %s",
					int(lastN), f1(lastTime), f1(duelReference)),
			},
			{
				Claim:  "election succeeds even with a deliberately broken clock (m = 1)",
				Pass:   desyncOK,
				Detail: fmt.Sprintf("mean %s parallel time over %d runs", f1(ds.Mean), desyncReps),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
