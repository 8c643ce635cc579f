package harness

import (
	"fmt"
	"strings"

	"popproto/internal/asciichart"
	"popproto/internal/registry"
	"popproto/internal/stats"
	"popproto/internal/table"
)

// protocolRow is one contender in the Table 1 race.
type protocolRow struct {
	name        string
	paperStates string
	paperTime   string
	// measure runs an ensemble for one (protocol, n) cell and returns the
	// mean parallel stabilization time, its 95% CI half-width, the
	// states-per-agent count for that n, and whether all replicates
	// stabilized.
	measure func(cfg Config, n, rep int, seed uint64) (meanTime, ciHalf float64, states int, ok bool)
}

// table1Names maps registry keys to the display names Table 1 uses.
var table1Names = map[string]string{
	"pll":     "PLL (this work)",
	"pll-sym": "PLL symmetric (§4)",
	"angluin": "Angluin et al. 2006",
	"lottery": "Lottery (Ali+17 style)",
	"maxid":   "MaxID (MST18 style)",
}

// table1Rows builds the contenders from the protocol registry: every
// election entry races with its registry-provided step budget and
// states-per-agent count, so adding a protocol to the registry adds its
// Table 1 row.
func table1Rows() []protocolRow {
	var rows []protocolRow
	for _, entry := range registry.Entries() {
		if entry.Target != 1 {
			// The epidemic coverage workload is not an election.
			continue
		}
		name := table1Names[entry.Key]
		if name == "" {
			name = entry.Key
		}
		rows = append(rows, protocolRow{
			name:        name,
			paperStates: entry.States,
			paperTime:   entry.Time,
			measure: func(cfg Config, n, rep int, seed uint64) (float64, float64, int, bool) {
				agg := measureEnsemble(cfg, registry.Spec{
					Protocol: entry.Key, N: n, Engine: cfg.Engine, Seed: seed,
				}, rep, 0)
				allOK := agg.Stabilized == agg.Replicates
				return agg.MeanParallelTime, ciHalf(agg), entry.StateCount(n, 0), allOK
			},
		})
	}
	return rows
}

// table1Experiment regenerates Table 1 empirically: the states/time
// trade-off across the implemented protocols. Absolute constants differ
// from the authors' analyses; the shape — who is logarithmic, who is
// linear, who pays states for speed — is what must match.
func table1Experiment() Experiment {
	e := Experiment{
		ID:    "table1",
		Title: "states vs. expected stabilization time across protocols",
		Paper: "Table 1 ([Ang+06], [Ali+17], [MST18], this work; see DESIGN.md §3 for substitutions)",
	}
	e.Run = func(cfg Config) Result {
		ns := sweepSizes(cfg, false)
		rep := reps(cfg, 20)
		rows := table1Rows()

		type seriesData struct {
			times  []float64
			states []float64
		}
		data := make([]seriesData, len(rows))
		allOK := make([]bool, len(rows))
		for i := range allOK {
			allOK[i] = true
		}

		tbl := table.New(append([]string{"protocol", "paper states", "paper time"},
			nLabels(ns)...)...)
		for i, row := range rows {
			cells := []string{row.name, row.paperStates, row.paperTime}
			for j, n := range ns {
				mean, half, states, ok := row.measure(cfg, n, rep, cfg.Seed+uint64(i*100+j))
				allOK[i] = allOK[i] && ok
				data[i].times = append(data[i].times, mean)
				data[i].states = append(data[i].states, float64(states))
				cells = append(cells, fmt.Sprintf("%s ±%s", f1(mean), f1(half)))
			}
			tbl.AddRow(cells...)
		}

		// Growth exponents per protocol (log-log slope of time vs n).
		xs := make([]float64, len(ns))
		for i, n := range ns {
			xs[i] = float64(n)
		}
		expTbl := table.New("protocol", "time exponent (≈0 log, ≈1 linear)",
			"states exponent", "stabilized all runs")
		exponents := make([]float64, len(rows))
		stateExp := make([]float64, len(rows))
		for i, row := range rows {
			exponents[i] = stats.PowerFit(xs, data[i].times).Slope
			stateExp[i] = stats.PowerFit(xs, data[i].states).Slope
			expTbl.AddRowf(row.name, f3(exponents[i]), f3(stateExp[i]), allOK[i])
		}

		var chartSeries []asciichart.Series
		for i, row := range rows {
			chartSeries = append(chartSeries, asciichart.Series{
				Name: row.name, X: xs, Y: data[i].times,
			})
		}

		var body strings.Builder
		fmt.Fprintf(&body, "Mean parallel stabilization time ± 95%% CI half-width, "+
			"%d replicates per cell (multi-core ensemble executor).\n\n", cellReps(cfg, rep))
		body.WriteString(tbl.Markdown())
		body.WriteString("\n")
		body.WriteString(expTbl.Markdown())
		body.WriteString("\n```\n")
		body.WriteString(asciichart.Plot(chartSeries, asciichart.Options{
			LogX: true, XLabel: "n", YLabel: "parallel time",
		}))
		body.WriteString("```\n")

		last := len(ns) - 1
		pllTime := data[0].times[last]
		angTime := data[2].times[last]
		verdicts := []Verdict{
			{
				Claim: "Table 1 row ordering: PLL (log time) beats Angluin (linear time) at scale",
				Pass:  pllTime < angTime/2,
				Detail: fmt.Sprintf("n=%d: PLL %s vs Angluin %s parallel time",
					ns[last], f1(pllTime), f1(angTime)),
			},
			{
				Claim:  "PLL time grows logarithmically (exponent ≈ 0)",
				Pass:   exponents[0] < pick(cfg, 0.35, 0.65),
				Detail: fmt.Sprintf("exponent %s", f3(exponents[0])),
			},
			{
				Claim:  "Angluin time grows linearly (exponent ≈ 1, Ω(n) by [DS18])",
				Pass:   exponents[2] > pick(cfg, 0.75, 0.6),
				Detail: fmt.Sprintf("exponent %s", f3(exponents[2])),
			},
			{
				Claim:  "MaxID buys O(log n) time with polynomial states ([MST18] row shape)",
				Pass:   exponents[4] < pick(cfg, 0.35, 0.65) && stateExp[4] > 1.5,
				Detail: fmt.Sprintf("time exponent %s, states exponent %s", f3(exponents[4]), f3(stateExp[4])),
			},
			{
				Claim:  "PLL states grow sub-polynomially (O(log n), Lemma 3)",
				Pass:   stateExp[0] < 0.3,
				Detail: fmt.Sprintf("states exponent %s", f3(stateExp[0])),
			},
			{
				Claim:  "every protocol elected exactly one leader in every run",
				Pass:   allTrue(allOK),
				Detail: fmt.Sprintf("stabilization flags %v", allOK),
			},
		}
		return renderReport(e, body.String(), verdicts)
	}
	return e
}

func nLabels(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("t̄(n=%d)", n)
	}
	return out
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}
