// Engine-equivalence tests: every simulation engine — census, batch,
// hybrid — must be statistically indistinguishable from the per-agent
// reference engine on identical protocols. All engines realize the same
// uniform-scheduler Markov chain (the census engine by multiplicity-
// weighted pair sampling and exact geometric batching, the batch engine by
// collision-free rounds, the hybrid engine by handing the census between
// those modes), so their stabilization-time distributions agree. The
// parameterized suite in pptest certifies that with the repository's own
// statistical machinery (KS and χ² from internal/stats); adding a future
// engine to the full suite is one entry in pp.Engines.
//
// All seeds are fixed, so the tests are deterministic; under the null
// hypothesis (which holds by construction) the p-values are uniform, and
// the chosen seeds give comfortable margins over the 0.001 rejection level.
package popproto

import (
	"testing"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
	"popproto/internal/registry"
)

// equivalenceFixtures is the protocol battery of the cross-engine suite:
// the two-state duel (heavy collision-free rounds), PLL (mixed rounds and
// per-interaction fallback), symmetric PLL (coin-flip symmetry breaking)
// and Angluin (rounds early, geometric no-op skipping late) cover every
// execution path of every engine.
func equivalenceFixtures() []pptest.EquivalenceFixture {
	return []pptest.EquivalenceFixture{
		pptest.EquivFixture[bool]("duel/n=256", pptest.Duel{}, 256, 200, registry.LinearBudget(256)),
		pptest.EquivFixture[core.State]("pll/n=96", core.NewForN(96), 96, 200, registry.LogBudget(96)),
		pptest.EquivFixture[core.SymState]("pll-sym/n=64", core.NewSymmetricForN(64), 64, 120,
			40*registry.LogBudget(64)),
		pptest.EquivFixture[baseline.AngluinState]("angluin/n=64", baseline.Angluin{}, 64, 200,
			registry.LinearBudget(64)),
	}
}

// TestEngineEquivalence runs the full KS/χ² suite for every engine against
// the per-agent reference on every fixture.
func TestEngineEquivalence(t *testing.T) {
	pptest.Equivalence(t, equivalenceFixtures(), pp.Engines())
}

// TestLeaderCountMonotone: for every protocol in this repository the leader
// count is monotone non-increasing and never reaches zero — on every
// engine, including through the census engine's batched skips and the
// round engines' aggregate paths.
func TestLeaderCountMonotone(t *testing.T) {
	checkMonotone := func(t *testing.T, sim pp.Runner[core.State], chunk, budget uint64) {
		t.Helper()
		prev := sim.Leaders()
		for sim.Steps() < budget {
			sim.RunSteps(chunk)
			l := sim.Leaders()
			if l > prev {
				t.Fatalf("leader count increased %d -> %d at step %d", prev, l, sim.Steps())
			}
			if l < 1 {
				t.Fatalf("all leaders eliminated at step %d", sim.Steps())
			}
			prev = l
		}
	}
	for _, engine := range pp.Engines() {
		t.Run("pll/"+engine.String(), func(t *testing.T) {
			const n = 256
			sim := pp.NewRunner[core.State](engine, core.NewForN(n), n, 7)
			checkMonotone(t, sim, n, uint64(60*n))
		})
		t.Run("duel/"+engine.String(), func(t *testing.T) {
			const n = 512
			sim := pp.NewRunner[bool](engine, pptest.Duel{}, n, 9)
			prev := sim.Leaders()
			budget := uint64(n) * uint64(n) * 4
			for sim.Steps() < budget && sim.Leaders() > 1 {
				sim.RunSteps(uint64(n))
				if l := sim.Leaders(); l > prev || l < 1 {
					t.Fatalf("leader census corrupt: %d -> %d at step %d", prev, l, sim.Steps())
				}
				prev = sim.Leaders()
			}
		})
	}
}
