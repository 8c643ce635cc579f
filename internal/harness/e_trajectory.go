package harness

import (
	"fmt"
	"strings"

	"popproto/internal/asciichart"
	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/trace"
)

// trajectoryExperiment renders the figure the paper describes in prose but
// never plots: the anatomy of one election. It traces the leader count and
// the population's progress through the status groups and epochs over a
// representative run, annotating where each module does its work.
func trajectoryExperiment() Experiment {
	e := Experiment{
		ID:    "trajectory",
		Title: "anatomy of one election: leader count and epoch occupancy over time",
		Paper: "§3.1 module pipeline (QuickElimination → Tournament ×2 → BackUp)",
	}
	e.Run = func(cfg Config) Result {
		n := 4096
		if cfg.Quick {
			n = 512
		}
		p := core.NewForN(n)
		// "pll" is in the catalog, so resolution cannot fail.
		spec, _ := registry.ResolveEngine(registry.Spec{Protocol: "pll", N: n, Engine: cfg.Engine})
		sim := pp.NewRunner[core.State](spec.Engine, p, n, cfg.Seed)
		rec := trace.NewRecorder(sim, 1.0,
			trace.LeaderProbe[core.State](),
			trace.CountProbe[core.State]("unassigned (V_X)", func(s core.State) bool {
				return s.Status == core.StatusX
			}),
			trace.CountProbe[core.State]("epoch ≥ 2", func(s core.State) bool {
				return s.Epoch >= 2
			}),
			trace.CountProbe[core.State]("epoch 4", func(s core.State) bool {
				return s.Epoch == 4
			}),
		)
		horizon := 30 * float64(core.CeilLog2(n))
		reachedOne := rec.RunUntil(horizon, func(s pp.Runner[core.State]) bool {
			return s.Leaders() == 1
		})

		leaders, _ := rec.SeriesByName("leaders")
		unassigned, _ := rec.SeriesByName("unassigned (V_X)")

		var body strings.Builder
		fmt.Fprintf(&body, "One run at n = %d (seed %d), sampled every parallel time unit.\n\n", n, cfg.Seed)
		body.WriteString("```\n")
		body.WriteString(rec.Chart(asciichart.Options{
			Width: 66, Height: 18, YLabel: "agents",
		}))
		body.WriteString("```\n\n")
		fmt.Fprintf(&body, "Final leader count %d at t = %s parallel time; the leader count collapses "+
			"during QuickElimination (while V_X drains in the first few units), and the epoch "+
			"series step up every ≈ cmax/2 = %.1f parallel time as the count-up clock wraps.\n",
			int(leaders.Last()), f1(sim.ParallelTime()), float64(p.Params().CMax)/2)

		verdicts := []Verdict{
			{
				Claim:  "the run elects exactly one leader within the charted horizon",
				Pass:   reachedOne,
				Detail: fmt.Sprintf("leaders = %d at t = %s", int(leaders.Last()), f1(sim.ParallelTime())),
			},
			{
				Claim:  "every agent is assigned a status early in the run (Lemma 4 regime)",
				Pass:   unassigned.Last() == 0,
				Detail: fmt.Sprintf("|V_X| = %d at the end of the trace", int(unassigned.Last())),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
