// Forced-handover tests: the hybrid engine's mode controller is a pure
// cost model, so ANY deterministic handover policy must preserve the
// sampled distribution — including policies chosen adversarially to pin
// handover at the worst points (mid collision-free block, one interaction
// before the typical leader crossing, at a dead-census boundary). These
// tests pin such policies through TuneHandover and certify the resulting
// stabilization-time distributions against the per-agent reference engine
// with the same KS/χ² machinery as the engine-equivalence suite, plus a
// bit-determinism test (same seed ⇒ identical trajectory, across runs and
// after Clone).
package popproto

import (
	"testing"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
	"popproto/internal/registry"
)

// forceCycle returns a handover policy that rotates round → skip →
// interact every `chunk` interactions, regardless of payoff. Driving runs
// through it exercises every mode transition hundreds of times per
// election, including handovers where the step budget truncates a
// collision-free block mid-round.
func forceCycle(chunk uint64) func(pp.HybridStats) pp.HybridMode {
	modes := [...]pp.HybridMode{pp.ModeRound, pp.ModeSkip, pp.ModeInteract}
	return func(st pp.HybridStats) pp.HybridMode {
		return modes[(st.Steps/chunk)%3]
	}
}

// pinCycle installs forceCycle on hybrid simulators (and forces round
// eligibility down to tiny populations); other engines pass through
// unconfigured, so the same fixture serves the agent reference.
func pinCycle[S comparable](chunk uint64) func(sim pp.Runner[S], seed uint64) {
	return func(sim pp.Runner[S], _ uint64) {
		h, ok := sim.(*pp.CensusSimulator[S])
		if !ok {
			return
		}
		h.TuneRounds(2, 1<<30)
		h.TuneHandover(forceCycle(chunk))
	}
}

// TestHandoverMidRound: a policy that rotates modes on raw step-count
// thresholds hands the census over at arbitrary chain positions — in
// particular mid collision-free block, where the round machinery must
// defer the rest of the block exactly. The stabilization-time
// distributions must still match the per-agent engine on every fixture
// class.
func TestHandoverMidRound(t *testing.T) {
	fixtures := []pptest.EquivalenceFixture{
		pptest.EquivFixtureConfigured[bool]("duel/n=256", pptest.Duel{}, 256, 200,
			registry.LinearBudget(256), pinCycle[bool](37)),
		pptest.EquivFixtureConfigured[core.State]("pll/n=96", core.NewForN(96), 96, 200,
			registry.LogBudget(96), pinCycle[core.State](53)),
		pptest.EquivFixtureConfigured[baseline.AngluinState]("angluin/n=64", baseline.Angluin{},
			64, 200, registry.LinearBudget(64), pinCycle[baseline.AngluinState](29)),
	}
	pptest.Equivalence(t, fixtures, []pp.Engine{pp.EngineAgent, pp.EngineHybrid})
}

// crossingFixture builds a fixture that pins handover one interaction
// before the leader crossing: for every replicate, a per-agent pilot run
// with the same seed locates its stabilization step c; the hybrid run is
// then driven in forced-round mode up to step c−1 (truncating whatever
// collision-free block is open at exactly that boundary) and handed to
// per-interaction mode for the crossing itself. The pilot's c is a
// constant with respect to the measured run, so the policy is
// deterministic and the first-hit distribution must be preserved.
func crossingFixture[S comparable](
	name string, proto pp.Protocol[S], n, reps int, budget uint64,
) pptest.EquivalenceFixture {
	inner := pptest.EquivFixtureConfigured[S](name, proto, n, reps, budget, nil)
	times := inner.Times
	return pptest.EquivalenceFixture{
		Name: name,
		Times: func(t *testing.T, engine pp.Engine, seed uint64) []float64 {
			t.Helper()
			if engine != pp.EngineHybrid {
				return times(t, engine, seed)
			}
			out := make([]float64, reps)
			failed := make([]bool, reps)
			pptest.Parallel(reps, 0, seed, func(rep int, repSeed uint64) {
				pilot := pp.NewRunner(pp.EngineAgent, proto, n, repSeed)
				c, piloted := pilot.RunUntilLeaders(1, budget)
				h := pp.NewHybridSimulator(proto, n, repSeed)
				h.TuneRounds(2, 1<<30)
				h.TuneHandover(func(pp.HybridStats) pp.HybridMode { return pp.ModeRound })
				var steps uint64
				ok := true
				if piloted && c > 0 {
					steps, ok = h.RunUntilLeaders(1, c-1)
				}
				if !ok || h.Leaders() > 1 {
					// Not crossed by c−1: hand over right before the pilot's
					// crossing and finish per-interaction.
					h.TuneHandover(func(pp.HybridStats) pp.HybridMode { return pp.ModeInteract })
					steps, ok = h.RunUntilLeaders(1, budget)
				}
				out[rep] = float64(steps) / float64(n)
				failed[rep] = !ok
			})
			for rep, f := range failed {
				if f {
					t.Fatalf("%s: hybrid rep %d: did not stabilize within %d steps", name, rep, budget)
				}
			}
			return out
		},
	}
}

// TestHandoverBeforeLeaderCrossing certifies the crossing-pinned handover
// against the per-agent reference on duel and PLL.
func TestHandoverBeforeLeaderCrossing(t *testing.T) {
	fixtures := []pptest.EquivalenceFixture{
		crossingFixture[bool]("duel/n=128", pptest.Duel{}, 128, 200, registry.LinearBudget(128)),
		crossingFixture[core.State]("pll/n=64", core.NewForN(64), 64, 200, registry.LogBudget(64)),
	}
	pptest.Equivalence(t, fixtures, []pp.Engine{pp.EngineAgent, pp.EngineHybrid})
}

// TestHandoverDeadCensus drives the hybrid engine across the dead-census
// boundary: once no pair of live states reacts, the geometric skipper must
// spend arbitrarily large step budgets exactly, the census must stay
// frozen, and handover policies that keep requesting other modes must
// still account steps exactly.
func TestHandoverDeadCensus(t *testing.T) {
	t.Run("frozen", func(t *testing.T) {
		const n = 1000
		h := pp.NewHybridSimulator[int](pptest.Frozen{}, n, 11)
		const budget = uint64(1) << 50
		h.RunSteps(budget)
		if got := h.Steps(); got != budget {
			t.Fatalf("dead census step accounting: got %d steps, want %d", got, budget)
		}
		if h.LiveStates() != 1 || h.RoleChanges() != 0 {
			t.Fatalf("dead census mutated: live=%d roleChanges=%d", h.LiveStates(), h.RoleChanges())
		}
	})
	t.Run("duel-endgame", func(t *testing.T) {
		// Elect one duel leader, then cross into the dead census: the only
		// reactive pair L×L is gone, so huge budgets must be spent at once
		// and stability verified without role changes.
		const n = 512
		h := pp.NewHybridSimulator[bool](pptest.Duel{}, n, 13)
		if _, ok := h.RunUntilLeaders(1, registry.LinearBudget(n)); !ok {
			t.Fatal("duel did not elect within budget")
		}
		crossing := h.Steps()
		if !h.VerifyStable(uint64(n) * uint64(n) * 1000) {
			t.Fatal("stable duel census reported role changes")
		}
		if want := crossing + uint64(n)*uint64(n)*1000; h.Steps() != want {
			t.Fatalf("dead-census step accounting after election: got %d, want %d", h.Steps(), want)
		}
		// A policy that keeps requesting rounds on the dead census must
		// still make progress (all-no-op rounds) with exact accounting.
		h.TuneHandover(func(pp.HybridStats) pp.HybridMode { return pp.ModeRound })
		before := h.Steps()
		h.RunSteps(10 * uint64(n))
		if got := h.Steps(); got != before+10*uint64(n) {
			t.Fatalf("forced-round dead census accounting: got %d, want %d", got, before+10*uint64(n))
		}
		if h.Leaders() != 1 {
			t.Fatalf("dead census changed leaders: %d", h.Leaders())
		}
	})
}

// TestHybridHandoverDeterminism: the controller conditions only on chain
// history, so a fixed seed must reproduce the trajectory bit-for-bit —
// across independent runs and across Clone, including clones taken between
// arbitrary mode transitions.
func TestHybridHandoverDeterminism(t *testing.T) {
	const n = 4096
	const seed = 42
	proto := core.NewForN(n)
	mk := func() *pp.CensusSimulator[core.State] {
		return pp.NewHybridSimulator[core.State](proto, n, seed)
	}
	a, b := mk(), mk()
	var clone *pp.CensusSimulator[core.State]
	chunk := uint64(n / 2)
	for i := 0; i < 200; i++ {
		a.RunSteps(chunk)
		b.RunSteps(chunk)
		if a.Steps() != b.Steps() || a.Leaders() != b.Leaders() ||
			a.RoleChanges() != b.RoleChanges() || a.Mode() != b.Mode() {
			t.Fatalf("same-seed runs diverged at step %d: steps %d/%d leaders %d/%d "+
				"roleChanges %d/%d mode %s/%s", a.Steps(), a.Steps(), b.Steps(),
				a.Leaders(), b.Leaders(), a.RoleChanges(), b.RoleChanges(), a.Mode(), b.Mode())
		}
		if i == 99 { // after 100 chunks; 100 more below rejoin a's 200
			clone = a.Clone()
		}
	}
	// The clone must reproduce the original's future exactly from the
	// cloned scheduler position and controller state.
	c2 := a.Clone()
	for i := 0; i < 100; i++ {
		clone.RunSteps(chunk)
	}
	if clone.Steps() != a.Steps() || clone.Leaders() != a.Leaders() ||
		clone.RoleChanges() != a.RoleChanges() {
		t.Fatalf("mid-run clone diverged: steps %d vs %d, leaders %d vs %d, roleChanges %d vs %d",
			clone.Steps(), a.Steps(), clone.Leaders(), a.Leaders(),
			clone.RoleChanges(), a.RoleChanges())
	}
	for i := 0; i < 50; i++ {
		a.RunSteps(chunk)
		c2.RunSteps(chunk)
		if a.Steps() != c2.Steps() || a.Leaders() != c2.Leaders() ||
			a.RoleChanges() != c2.RoleChanges() || a.Mode() != c2.Mode() {
			t.Fatalf("clone future diverged at step %d (mode %s vs %s)", a.Steps(), a.Mode(), c2.Mode())
		}
	}
}
