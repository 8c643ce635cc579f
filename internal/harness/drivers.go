package harness

import (
	"context"
	"fmt"

	"popproto/internal/asciichart"
	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/stats"
)

// grid lays out a row's ensemble cells series-major: cell j of series s
// measures spec(s, j) on cfg.Engine with rep replicates (cfg.Replicates
// overrides rep; cfg.CITarget enables early stopping). The budget is the
// catalog entry's default, so every cell is exactly the /v1/experiments
// request over the same protocol, n, m, engine, seed and replicates.
func grid(cfg Config, series, points, rep int, spec func(s, j int) registry.Spec) []ensemble.Spec {
	cells := make([]ensemble.Spec, 0, series*points)
	for s := range series {
		for j := range points {
			rs := spec(s, j)
			rs.Engine = cfg.Engine
			cells = append(cells, ensemble.Spec{Registry: rs, Replicates: cellReps(cfg, rep), CITarget: cfg.CITarget})
		}
	}
	return cells
}

// series returns the finished cells of series s of a grid with points
// cells per series.
func (r *report) series(s, points int) []ensemble.Aggregates {
	return r.cells[s*points : (s+1)*points]
}

// measureEnsemble runs one ensemble cell through the shared replication
// executor — multi-core fan-out, Welford aggregation with 95% CIs,
// quantile sketch — and returns the aggregates popprotod's
// /v1/experiments serves for the same spec.
func measureEnsemble(cfg Config, spec ensemble.Spec) ensemble.Aggregates {
	res, err := ensemble.Run(context.Background(), spec, ensemble.Options{Workers: cfg.Workers})
	if err != nil {
		// Cells are harness-generated against the registry; failure is a
		// bug, not a measurement.
		panic(fmt.Sprintf("harness: ensemble %+v: %v", spec, err))
	}
	return res.Aggregates
}

// cellReps reports the replicate count a cell runs with (the cfg
// override, or the experiment default).
func cellReps(cfg Config, rep int) int {
	if cfg.Replicates > 0 {
		return cfg.Replicates
	}
	return rep
}

// ciHalf returns the 95% CI half-width of an ensemble's mean.
func ciHalf(agg ensemble.Aggregates) float64 {
	return (agg.CIHi - agg.CILo) / 2
}

// meanTimes returns the cells' mean parallel stabilization times.
func meanTimes(cells []ensemble.Aggregates) []float64 {
	ys := make([]float64, len(cells))
	for i, agg := range cells {
		ys[i] = agg.MeanParallelTime
	}
	return ys
}

// stabilized reports whether every replicate of every cell elected.
func stabilized(cells []ensemble.Aggregates) bool {
	for _, agg := range cells {
		if agg.Stabilized != agg.Replicates {
			return false
		}
	}
	return true
}

// floats converts an n grid to chart and fit coordinates.
func floats(ns []int) []float64 {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	return xs
}

// timeChart writes a fenced chart of parallel time against n (log axis).
func (r *report) timeChart(series ...asciichart.Series) {
	r.chart(asciichart.Options{LogX: true, XLabel: "n", YLabel: "parallel time"}, series...)
}

// chart writes a fenced ASCII chart.
func (r *report) chart(opts asciichart.Options, series ...asciichart.Series) {
	r.printf("```\n%s```\n", asciichart.Plot(series, opts))
}

// summarizeOr is Summarize with an empty-sample fallback (zero Summary),
// for report paths where a sample may legitimately come back empty.
func summarizeOr(xs []float64) stats.Summary {
	if len(xs) == 0 {
		return stats.Summary{}
	}
	return stats.Summarize(xs)
}

// replicate runs repCount instrumented runs through the ensemble
// executor: run r gets the scheduler seed ensemble.ReplicateSeed(seed, r),
// exactly as replicate r of an ensemble with base seed seed would, and
// the fold it returns runs on the calling goroutine strictly in
// replicate order — so a report is the same for any cfg.Workers, and
// folds need no lock.
func replicate(cfg Config, seed uint64, repCount int, run func(seed uint64) (fold func())) {
	err := ensemble.Dispatch(context.Background(), seed, 0, repCount, cfg.Workers,
		func(_ context.Context, _ int, seed uint64) (func(), error) { return run(seed), nil },
		func(fold func()) bool { fold(); return false })
	if err != nil {
		panic(err) // unreachable: run cannot fail and the context is never canceled
	}
}

// runUntil advances sim in checkEvery-step slices until pred holds or the
// step budget is exhausted, returning the step count at which pred was
// first observed and whether it was. It is the one check-point loop of
// the instrumented rows: pred runs once at the start and after every
// slice, so it is also where a row records series over time. Census
// observables at those points are counts through pp.CensusBy, at
// O(live states) each.
func runUntil[S comparable](
	sim pp.Runner[S], checkEvery, budget uint64, pred func(pp.Runner[S]) bool,
) (uint64, bool) {
	for {
		if pred(sim) {
			return sim.Steps(), true
		}
		if sim.Steps() >= budget {
			return sim.Steps(), false
		}
		sim.RunSteps(checkEvery)
	}
}
