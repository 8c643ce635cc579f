package harness

import (
	"context"
	"fmt"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/stats"
)

// summarizeOr is Summarize with an empty-sample fallback (zero Summary),
// for report paths where a sample may legitimately come back empty.
func summarizeOr(xs []float64) stats.Summary {
	if len(xs) == 0 {
		return stats.Summary{}
	}
	return stats.Summarize(xs)
}

// logBudget is the step cap for protocols with (poly)logarithmic expected
// time: thousands of parallel-time log-factors beyond the expectation.
// The definition lives in the registry (which also budgets service jobs
// with it) so the two cannot drift.
func logBudget(n int) uint64 { return registry.LogBudget(n) }

// runUntil advances sim in checkEvery-step slices until pred holds or the
// step budget is exhausted, returning the step count at which pred was
// first observed and whether it was.
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

// measureEnsemble runs an ensemble of rep elections of the given registry
// spec through the shared replication executor — multi-core fan-out,
// Welford aggregation with 95% CIs, quantile sketch — and returns the
// aggregates. cfg.Replicates overrides rep; cfg.CITarget enables early
// stopping; budget 0 is the catalog entry's default, the budget
// /v1/experiments runs without a maxParallelTime. Every cell that measures a plain registry spec (Table 1/2,
// Theorem 1, the symmetric comparison, the ablation's m sweep) goes
// through this, so its numbers are the aggregates popprotod's
// /v1/experiments serves for the same spec.
func measureEnsemble(cfg Config, spec registry.Spec, rep int, budget uint64) ensemble.Aggregates {
	res, err := ensemble.Run(context.Background(), ensemble.Spec{
		Registry:   spec,
		Replicates: cellReps(cfg, rep),
		Budget:     budget,
		CITarget:   cfg.CITarget,
	}, ensemble.Options{Workers: cfg.Workers})
	if err != nil {
		// Specs here are harness-generated against the registry; failure is
		// a bug, not a measurement.
		panic(fmt.Sprintf("harness: ensemble %+v: %v", spec, err))
	}
	return res.Aggregates
}

// ciHalf returns the 95% CI half-width of an ensemble's mean.
func ciHalf(agg ensemble.Aggregates) float64 {
	return (agg.CIHi - agg.CILo) / 2
}

// cellReps reports the replicate count a report cell actually ran with
// (the cfg override, or the experiment default).
func cellReps(cfg Config, rep int) int {
	if cfg.Replicates > 0 {
		return cfg.Replicates
	}
	return rep
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
