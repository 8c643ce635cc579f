package harness

import (
	"fmt"
	"strings"

	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// lemma4Experiment verifies Lemma 4: once every agent has been assigned a
// status, |V_A| ≥ n/2, |V_F| ≥ n/2 and |V_B| ≥ 1 — in every run, because
// the lemma is deterministic given full assignment.
func lemma4Experiment() Experiment {
	e := Experiment{
		ID:    "lemma4",
		Title: "status assignment bounds: |V_A| ≥ n/2, |V_F| ≥ n/2, |V_B| ≥ 1",
		Paper: "Lemma 4",
	}
	e.Run = func(cfg Config) Result {
		n := 2048
		repCount := reps(cfg, 200)
		if cfg.Quick {
			n = 256
			repCount = 30
		}
		p := core.NewForN(n)

		minA, minB, minF := n, n, n
		violations := 0
		assignTimes := make([]float64, 0, repCount)
		replicate(cfg, cfg.Seed, repCount, func(seed uint64) func() {
			sim := pp.NewSimulator[core.State](p, n, seed)
			for {
				sim.RunSteps(uint64(n))
				counts := pp.CensusBy(sim, func(s core.State) core.Status { return s.Status })
				if counts[core.StatusX] > 0 {
					continue
				}
				a, b := counts[core.StatusA], counts[core.StatusB]
				f := n - sim.Leaders()
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
			}
		})

		tbl := table.New("quantity", "paper bound", "worst observed", "holds")
		tbl.AddRowf("|V_A|", fmt.Sprintf("≥ n/2 = %d", n/2), minA, minA >= n/2)
		tbl.AddRowf("|V_B|", "≥ 1", minB, minB >= 1)
		tbl.AddRowf("|V_F|", fmt.Sprintf("≥ n/2 = %d", n/2), minF, minF >= n/2)

		var body strings.Builder
		fmt.Fprintf(&body, "n = %d, %d runs; census taken at the first configuration with V_X = ∅ (checked once per parallel time unit).\n\n",
			n, repCount)
		body.WriteString(tbl.Markdown())
		s := stats.Summarize(assignTimes)
		fmt.Fprintf(&body, "\nParallel time to full assignment: mean %s, max %s (coupon collector, Θ(log n)).\n",
			f2(s.Mean), f2(s.Max))

		verdicts := []Verdict{
			{
				Claim: "Lemma 4 bounds hold in every run",
				Pass:  violations == 0,
				Detail: fmt.Sprintf("%d/%d runs violated; minima |V_A|=%d |V_B|=%d |V_F|=%d",
					violations, repCount, minA, minB, minF),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
