package harness

import (
	"fmt"
	"math"
	"strings"

	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/table"
)

// lemma6Experiment instruments the CountUp synchronization clock. From the
// first Cstart(1)-configuration (some agent freshly wrapped to color 1):
//
//	P1: no agent gets color 2 within ⌊21 n ln n⌋ steps (w.h.p.);
//	P2: color 1 covers the population within ⌊4 n ln n⌋ steps (w.h.p.);
//	P3: the next Cstart (color 2 appears) follows within O(log n) parallel
//	    time (w.h.p.).
func lemma6Experiment() Experiment {
	e := Experiment{
		ID:    "lemma6",
		Title: "synchronization propositions P1–P3 of the count-up clock",
		Paper: "Lemma 6 (with Lemma 5)",
	}
	e.Run = func(cfg Config) Result {
		n := 1024
		repCount := reps(cfg, 100)
		if cfg.Quick {
			n = 256
			repCount = 20
		}
		p := core.NewForN(n)
		nLogN := float64(n) * math.Log(float64(n))

		colorCount := func(sim pp.Runner[core.State], color uint8) int {
			c := 0
			sim.ForEach(func(_ int, s core.State) {
				if s.Color == color {
					c++
				}
			})
			return c
		}

		p1OK, p2OK, p3OK := 0, 0, 0
		var spreadTimes, nextStartTimes []float64
		replicate(cfg, cfg.Seed, repCount, func(seed uint64) func() {
			sim := pp.NewSimulator[core.State](p, n, seed)
			check := uint64(n / 2)

			// Find the first appearance of color 1 (≈ Cstart(1)).
			t1, ok := runUntil(sim, check, uint64(200*nLogN), func(s pp.Runner[core.State]) bool {
				return colorCount(s, 1) > 0
			})
			if !ok {
				return func() {} // counted as failure of all three
			}

			// P2: color 1 covers the population within ⌊4 n ln n⌋ steps.
			t2, covered := runUntil(sim, check, t1+uint64(4*nLogN), func(s pp.Runner[core.State]) bool {
				return colorCount(s, 1) == s.N()
			})

			// P1 and P3: watch for the first color-2 agent.
			t3, sawColor2 := runUntil(sim, check, t1+uint64(60*nLogN), func(s pp.Runner[core.State]) bool {
				return colorCount(s, 2) > 0
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

		tbl := table.New("proposition", "paper claim", "success rate", "observed timing")
		spread := summarizeOr(spreadTimes)
		next := summarizeOr(nextStartTimes)
		tbl.AddRowf("P1", "no color 2 within ⌊21 n ln n⌋ steps (w.h.p.)",
			fmt.Sprintf("%d/%d", p1OK, repCount), "—")
		tbl.AddRowf("P2", "color covers V within ⌊4 n ln n⌋ steps (w.h.p.)",
			fmt.Sprintf("%d/%d", p2OK, repCount),
			fmt.Sprintf("spread time %s ± %s parallel", f2(spread.Mean), f2(spread.SEM())))
		tbl.AddRowf("P3", "next Cstart within O(log n) parallel time",
			fmt.Sprintf("%d/%d", p3OK, repCount),
			fmt.Sprintf("gap %s ± %s parallel (lg n = %d)", f2(next.Mean), f2(next.SEM()), core.CeilLog2(n)))

		var body strings.Builder
		fmt.Fprintf(&body, "n = %d, %d runs, censuses every n/2 steps (granularity ≤ 0.5 parallel time).\n\n", n, repCount)
		body.WriteString(tbl.Markdown())
		fmt.Fprintf(&body, "\nFor context: the count-up period cmax/2 · n = %.1f·n ln n steps, so color 2 is expected around there.\n",
			float64(p.Params().CMax)/2/math.Log(float64(n)))

		okRate := func(k int) bool { return float64(k) >= 0.9*float64(repCount) }
		verdicts := []Verdict{
			{Claim: "P1 holds w.h.p.", Pass: okRate(p1OK), Detail: fmt.Sprintf("%d/%d", p1OK, repCount)},
			{Claim: "P2 holds w.h.p.", Pass: okRate(p2OK), Detail: fmt.Sprintf("%d/%d", p2OK, repCount)},
			{
				Claim: "P3: the clock keeps ticking every Θ(log n) parallel time",
				Pass:  okRate(p3OK) && next.Mean < 60*float64(core.CeilLog2(n)),
				Detail: fmt.Sprintf("%d/%d ticked; mean gap %s parallel vs lg n = %d",
					p3OK, repCount, f2(next.Mean), core.CeilLog2(n)),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}
