package harness

import (
	"fmt"
	"math"
	"strings"

	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// lemma7Experiment measures the survivor distribution of QuickElimination:
// at step ⌊21 n ln n⌋, Pr[|V_L| = i] ≤ 2^{1−i} + ε_i for every i ≥ 2, and
// at least one leader always survives.
func lemma7Experiment() Experiment {
	e := Experiment{
		ID:    "lemma7",
		Title: "QuickElimination survivor distribution vs the 2^{1−i} envelope",
		Paper: "Lemma 7 (the lottery game of §3.1.1)",
	}
	e.Run = func(cfg Config) Result {
		n := 1024
		repCount := reps(cfg, 1000)
		if cfg.Quick {
			n = 256
			repCount = 200
		}
		p := core.NewForN(n)
		horizon := uint64(math.Floor(21 * float64(n) * math.Log(float64(n))))

		survivorCounts := make(map[int]int)
		hist := stats.NewHistogram(9)
		zeroLeaderRuns := 0
		leftEpochOne := 0
		replicate(cfg, cfg.Seed, repCount, func(seed uint64) func() {
			sim := pp.NewSimulator[core.State](p, n, seed)
			sim.RunSteps(horizon)
			leaders := sim.Leaders()
			epochsBeyond := 0
			sim.ForEach(func(_ int, s core.State) {
				if s.Epoch > 1 {
					epochsBeyond++
				}
			})
			return func() {
				survivorCounts[leaders]++
				hist.Add(leaders)
				if leaders == 0 {
					zeroLeaderRuns++
				}
				if epochsBeyond > 0 {
					leftEpochOne++
				}
			}
		})

		maxI := 0
		for i := range survivorCounts {
			maxI = max(maxI, i)
		}
		tbl := table.New("survivors i", "empirical Pr[|V_L| = i]", "95% Wilson upper",
			"envelope 2^{1−i} (i ≥ 2)", "within envelope")
		envelopeOK := true
		for i := 1; i <= maxI; i++ {
			count := survivorCounts[i]
			emp := float64(count) / float64(repCount)
			_, hi := stats.WilsonCI(count, repCount)
			if i == 1 {
				tbl.AddRowf(i, f4(emp), f4(hi), "—", "—")
				continue
			}
			env := stats.SurvivorEnvelope(i)
			// The Wilson upper confidence limit must not exceed the
			// envelope by more than the paper's ε_i slack (Σε_i = O(1/n));
			// we grant a fixed small slack for Monte Carlo noise.
			ok := emp <= env+0.02 || hi <= env+0.05
			envelopeOK = envelopeOK && ok
			tbl.AddRowf(i, f4(emp), f4(hi), f4(env), ok)
		}

		var body strings.Builder
		fmt.Fprintf(&body, "n = %d, %d runs, census at step ⌊21 n ln n⌋ = %d.\n\n", n, repCount, horizon)
		body.WriteString(tbl.Markdown())
		body.WriteString("\nSurvivor distribution (value, count, fraction):\n\n```\n")
		body.WriteString(hist.Bars(40))
		body.WriteString("```\n")
		fmt.Fprintf(&body, "\nRuns in which some agent had already left epoch 1: %d/%d (the lemma conditions hold w.h.p.).\n",
			leftEpochOne, repCount)

		verdicts := []Verdict{
			{
				Claim:  "Pr[|V_L| = i] ≤ 2^{1−i} + ε for every i ≥ 2 (Lemma 7)",
				Pass:   envelopeOK,
				Detail: "see table",
			},
			{
				Claim:  "QuickElimination never eliminates all leaders",
				Pass:   zeroLeaderRuns == 0,
				Detail: fmt.Sprintf("%d/%d runs with zero leaders", zeroLeaderRuns, repCount),
			},
			{
				Claim: "agents are still in epoch 1 at the horizon w.h.p. (first condition of Lemma 7's proof)",
				Pass:  float64(leftEpochOne) <= 0.1*float64(repCount),
				Detail: fmt.Sprintf("%d/%d runs had early epoch departures",
					leftEpochOne, repCount),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
