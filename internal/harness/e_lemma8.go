package harness

import (
	"fmt"
	"strings"

	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/table"
)

// lemma8Experiment measures how often QuickElimination plus the two
// Tournament rounds finish the election before any agent enters the fourth
// epoch — the paper claims probability 1 − O(1/log n), which is exactly
// why BackUp contributes only O(1/log n)·O(log² n) = O(log n) to the
// expectation.
func lemma8Experiment() Experiment {
	e := Experiment{
		ID:    "lemma8",
		Title: "unique leader before epoch 4 with probability 1 − O(1/log n)",
		Paper: "Lemma 8",
	}
	e.Run = func(cfg Config) Result {
		sizes := []int{1024, 4096}
		repCount := reps(cfg, 300)
		if cfg.Quick {
			sizes = []int{256}
			repCount = 50
		}

		tbl := table.New("n", "runs with unique leader before epoch 4",
			"success rate", "1 − 1/lg n (scale reference)")
		rates := make([]float64, 0, len(sizes))
		for _, n := range sizes {
			p := core.NewForN(n)
			successes := 0
			replicate(cfg, cfg.Seed+uint64(n), repCount, func(seed uint64) func() {
				sim := pp.NewSimulator[core.State](p, n, seed)
				_, ok := runUntil(sim, uint64(n/2), logBudget(n), func(s pp.Runner[core.State]) bool {
					inFourth := false
					s.ForEach(func(_ int, st core.State) {
						if st.Epoch == 4 {
							inFourth = true
						}
					})
					return inFourth
				})
				if !ok || sim.Leaders() != 1 {
					return func() {}
				}
				return func() { successes++ }
			})
			rate := float64(successes) / float64(repCount)
			rates = append(rates, rate)
			ref := 1 - 1/float64(core.CeilLog2(n))
			tbl.AddRowf(n, fmt.Sprintf("%d/%d", successes, repCount), f3(rate), f3(ref))
		}

		var body strings.Builder
		fmt.Fprintf(&body, "%d runs per size; runs are stopped at the first epoch-4 agent (censuses every n/2 steps).\n\n", repCount)
		body.WriteString(tbl.Markdown())

		pass := true
		for _, r := range rates {
			if r < pick(cfg, 0.9, 0.75) {
				pass = false
			}
		}
		improving := len(rates) < 2 || rates[len(rates)-1] >= rates[0]-0.05
		verdicts := []Verdict{
			{
				Claim:  "unique leader before epoch 4 w.p. 1 − O(1/log n) (Lemma 8)",
				Pass:   pass,
				Detail: fmt.Sprintf("success rates %v", rates),
			},
			{
				Claim:  "failure probability does not grow with n",
				Pass:   improving,
				Detail: fmt.Sprintf("rates across sizes %v", rates),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
