package baseline

import (
	"math"
	"testing"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
	"popproto/internal/stats"
)

// TestAngluinExpectedStepsClosedForm sanity-checks the closed form against
// the harmonic-difference sum it collapses from.
func TestAngluinExpectedStepsClosedForm(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100} {
		var sum float64
		for k := 2; k <= n; k++ {
			sum += 1 / (float64(k) * float64(k-1))
		}
		want := float64(n) * float64(n-1) * sum
		if got := (Angluin{}).ExpectedSteps(n); math.Abs(got-want) > 1e-6*want {
			t.Errorf("n=%d: closed form %v, sum %v", n, got, want)
		}
	}
}

// TestEngineMatchesExactExpectation is the analytic cross-check of the
// whole simulation engine: the measured mean stabilization step count of
// the Angluin protocol must agree with the exact expectation (n−1)²
// within a 4-sigma confidence band. A systematic scheduler bias (wrong
// pair distribution, off-by-one step accounting, census bugs) would land
// far outside the band.
func TestEngineMatchesExactExpectation(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		const repCount = 400
		steps := make([]float64, repCount)
		stabilized := make([]bool, repCount)
		pptest.Parallel(repCount, 0, 99, func(rep int, seed uint64) {
			sim := pp.NewSimulator[AngluinState](Angluin{}, n, seed)
			s, ok := sim.RunUntilLeaders(1, uint64(n)*uint64(n)*1000)
			steps[rep], stabilized[rep] = float64(s), ok
		})
		for i, ok := range stabilized {
			if !ok {
				t.Fatalf("n=%d rep %d did not stabilize", n, i)
			}
		}
		s := stats.Summarize(steps)
		exact := (Angluin{}).ExpectedSteps(n)
		band := 4 * s.SEM()
		if math.Abs(s.Mean-exact) > band {
			t.Errorf("n=%d: measured %.1f ± %.1f vs exact %.1f (|Δ| > 4·SEM)",
				n, s.Mean, s.SEM(), exact)
		}
	}
}

func TestExpectedStepsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	Angluin{}.ExpectedSteps(0)
}
