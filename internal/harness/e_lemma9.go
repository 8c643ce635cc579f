package harness

import (
	"fmt"
	"strings"

	"popproto/internal/asciichart"
	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// lemma9Experiment measures how long the population takes to advance
// entirely into the fourth epoch — O(log n) parallel time per Lemma 9,
// from the initial configuration and regardless of election progress.
func lemma9Experiment() Experiment {
	e := Experiment{
		ID:    "lemma9",
		Title: "all agents reach epoch 4 within O(log n) parallel time",
		Paper: "Lemma 9 (with Lemma 5)",
	}
	e.Run = func(cfg Config) Result {
		ns := sweepSizes(cfg, true)
		repCount := reps(cfg, 20)

		tbl := table.New("n", "mean parallel time to all-epoch-4", "95% CI", "per lg n")
		xs := make([]float64, 0, len(ns))
		ys := make([]float64, 0, len(ns))
		allReached := true
		for i, n := range ns {
			p := core.NewForN(n)
			times := make([]float64, 0, repCount)
			replicate(cfg, cfg.Seed+uint64(i), repCount, func(seed uint64) func() {
				sim := pp.NewSimulator[core.State](p, n, seed)
				_, ok := runUntil(sim, uint64(n), 40*logBudget(n), func(s pp.Runner[core.State]) bool {
					all := true
					s.ForEach(func(_ int, st core.State) {
						if st.Epoch != 4 {
							all = false
						}
					})
					return all
				})
				t := sim.ParallelTime()
				return func() {
					times = append(times, t)
					allReached = allReached && ok
				}
			})
			s := stats.Summarize(times)
			lo, hi := s.CI95()
			tbl.AddRowf(n, f1(s.Mean), fmt.Sprintf("[%s, %s]", f1(lo), f1(hi)),
				f2(s.Mean/float64(core.CeilLog2(n))))
			xs = append(xs, float64(n))
			ys = append(ys, s.Mean)
		}

		power := stats.PowerFit(xs, ys)
		logFit := stats.FitLogX(xs, ys)

		var body strings.Builder
		fmt.Fprintf(&body, "%d runs per size.\n\n", repCount)
		body.WriteString(tbl.Markdown())
		fmt.Fprintf(&body, "\nLog-log exponent %s; direct fit time = %s·lg n %+.1f (R² %s).\n\n",
			f3(power.Slope), f2(logFit.Slope), logFit.Intercept, f3(logFit.R2))
		body.WriteString("```\n")
		body.WriteString(asciichart.Plot([]asciichart.Series{
			{Name: "time to all-epoch-4", X: xs, Y: ys},
		}, asciichart.Options{LogX: true, XLabel: "n", YLabel: "parallel time"}))
		body.WriteString("```\n")

		verdicts := []Verdict{
			{
				Claim:  "every run reached the fourth epoch",
				Pass:   allReached,
				Detail: "within 40× the standard budget",
			},
			{
				Claim:  "epoch-progress time is O(log n) (Lemma 9)",
				Pass:   power.Slope < pick(cfg, 0.35, 0.65),
				Detail: fmt.Sprintf("log-log exponent %s", f3(power.Slope)),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
