package pptest

import (
	"testing"

	"popproto/internal/pp"
	"popproto/internal/stats"
)

// equivAlpha is the rejection level of the equivalence suite. Seeds are
// fixed, so each test is deterministic; under the null hypothesis (which
// holds by construction — every engine samples the same Markov chain) the
// p-values are uniform, and the chosen seeds give comfortable margins.
const equivAlpha = 0.001

// equivBins is the bin count of the pooled-quantile χ² statistic.
const equivBins = 6

// EquivalenceFixture is one protocol scenario of the cross-engine
// equivalence suite: a named election whose parallel stabilization-time
// sample can be collected on any engine. Fixtures are type-erased so
// scenarios over different state types share one table; build them with
// EquivFixture or EquivFixtureConfigured.
type EquivalenceFixture struct {
	// Name labels the fixture's subtest.
	Name string
	// Times collects the fixture's parallel stabilization times on one
	// engine, failing t if any run misses the step budget.
	Times func(t *testing.T, engine pp.Engine, seed uint64) []float64
}

// EquivFixture builds an equivalence fixture: reps independent elections
// of proto on n agents, each capped at budget interactions.
func EquivFixture[S comparable](
	name string, proto pp.Protocol[S], n, reps int, budget uint64,
) EquivalenceFixture {
	return EquivFixtureConfigured[S](name, proto, n, reps, budget, nil)
}

// EquivFixtureConfigured is EquivFixture with a per-run hook: configure is
// called on every freshly constructed simulator before the election runs
// (on every engine — hooks that only apply to one engine should type-assert
// and return). The forced-handover tests use it to pin the hybrid engine's
// mode policy at adversarial switch points; any deterministic configuration
// is distribution-preserving, which is exactly what the suite then checks.
func EquivFixtureConfigured[S comparable](
	name string, proto pp.Protocol[S], n, reps int, budget uint64,
	configure func(sim pp.Runner[S], repSeed uint64),
) EquivalenceFixture {
	return EquivalenceFixture{
		Name: name,
		Times: func(t *testing.T, engine pp.Engine, seed uint64) []float64 {
			t.Helper()
			times := make([]float64, reps)
			failed := make([]bool, reps)
			Parallel(reps, 0, seed, func(rep int, repSeed uint64) {
				sim := pp.NewRunner(engine, proto, n, repSeed)
				if configure != nil {
					configure(sim, repSeed)
				}
				steps, ok := sim.RunUntilLeaders(1, budget)
				times[rep] = float64(steps) / float64(n)
				failed[rep] = !ok
			})
			for rep, f := range failed {
				if f {
					t.Fatalf("%s: %s engine, rep %d: did not stabilize within %d steps",
						name, engine, rep, budget)
				}
			}
			return times
		},
	}
}

// Equivalence runs the cross-engine equivalence suite: for every fixture,
// the stabilization-time sample of every engine in engines[1:] is compared
// against the sample of the reference engine engines[0] with both the
// two-sample Kolmogorov–Smirnov test and a two-sample χ² over
// pooled-quantile bins, rejecting at α = 0.001. Subtests are named
// "<fixture>/engine=<e>", so one -run regex pins any cell.
//
// Every engine realizes the same uniform-scheduler Markov chain, so the
// null hypothesis holds by construction; a rejection means an engine (or a
// handover policy under test) distorted the sampled distribution. Adding a
// future engine to the full suite is one entry in engines.
func Equivalence(t *testing.T, fixtures []EquivalenceFixture, engines []pp.Engine) {
	if len(engines) < 2 {
		t.Fatal("pptest.Equivalence needs a reference engine and at least one candidate")
	}
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			ref := engines[0]
			refTimes := fx.Times(t, ref, 1+uint64(ref))
			for _, e := range engines[1:] {
				t.Run("engine="+e.String(), func(t *testing.T) {
					times := fx.Times(t, e, 1+uint64(e))
					ks := stats.KSTwoSample(refTimes, times)
					if ks.P < equivAlpha {
						t.Errorf("%s vs %s stabilization times differ (KS): D=%.4f p=%.6f",
							e, ref, ks.Stat, ks.P)
					}
					chi, p := pooledChiSquare(refTimes, times, equivBins)
					if p < equivAlpha {
						t.Errorf("%s vs %s stabilization times differ (χ²): χ²=%.2f p=%.6f",
							e, ref, chi, p)
					}
				})
			}
		})
	}
}

// pooledChiSquare bins both samples at the pooled sample's quantiles and
// returns the two-sample χ² statistic with its p-value (bins−1 degrees of
// freedom). Quantile binning makes the expected occupancies uniform under
// the null without assuming any parametric form.
func pooledChiSquare(a, b []float64, bins int) (chi, p float64) {
	pooled := append(append([]float64(nil), a...), b...)
	edges := make([]float64, bins-1)
	for i := range edges {
		edges[i] = stats.Quantile(pooled, float64(i+1)/float64(bins))
	}
	binOf := func(v float64) int {
		k := 0
		for k < len(edges) && v > edges[k] {
			k++
		}
		return k
	}
	oa := make([]float64, bins)
	ob := make([]float64, bins)
	for _, v := range a {
		oa[binOf(v)]++
	}
	for _, v := range b {
		ob[binOf(v)]++
	}
	for i := range oa {
		if oa[i]+ob[i] == 0 {
			continue
		}
		d := oa[i] - ob[i]
		chi += d * d / (oa[i] + ob[i])
	}
	return chi, stats.GammaQ(float64(bins-1)/2, chi/2)
}
