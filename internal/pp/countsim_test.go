package pp_test

import (
	"testing"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
)

// censusTotal sums a census; it must always equal n.
func censusTotal[S comparable](c map[S]int) int {
	total := 0
	for _, v := range c {
		total += v
	}
	return total
}

func TestCountSimulatorConservesPopulation(t *testing.T) {
	sim := pp.NewCountSimulator[bool](duel, 500, 3)
	for k := 0; k < 50; k++ {
		sim.RunSteps(100)
		if got := censusTotal(sim.Census()); got != 500 {
			t.Fatalf("census total = %d after %d steps, want 500", got, sim.Steps())
		}
		if sim.Count(true) != sim.Leaders() {
			t.Fatalf("leader count %d != census count %d", sim.Leaders(), sim.Count(true))
		}
	}
}

func TestCountSimulatorElects(t *testing.T) {
	tc := pptest.TestCase[bool]{Proto: duel, N: 2048, Seed: 11, Engine: pp.EngineCount}
	sim := tc.NewRunner()
	steps := pptest.ElectOne(t, tc, sim)
	// The duel needs at least n−1 eliminations, each one interaction.
	if steps < 2047 {
		t.Fatalf("stabilized after only %d steps; %d eliminations are required", steps, 2047)
	}
	if !sim.VerifyStable(100_000) {
		t.Fatal("single-leader configuration reported unstable")
	}
}

// TestCountSimulatorBatchedEndgame forces the batched no-op skipping path:
// the duel endgame with few leaders among many agents is no-op dominated,
// so stabilization within a modest wall-clock budget is only possible if
// the engine actually skips census-preserving interactions. The step
// counter must nevertheless reflect the Θ(n²) skipped interactions.
func TestCountSimulatorBatchedEndgame(t *testing.T) {
	const n = 1 << 16
	sim := pp.NewCountSimulator[bool](duel, n, 5)
	steps, ok := sim.RunUntilLeaders(1, 1<<62)
	if !ok || sim.Leaders() != 1 {
		t.Fatalf("did not stabilize: %d leaders after %d steps", sim.Leaders(), steps)
	}
	// E[steps] = (n−1)² ≈ 4.3e9; even a generous lower bound certifies
	// that skipped interactions were counted, not dropped.
	if steps < uint64(n)*uint64(n)/8 {
		t.Fatalf("step counter %d implausibly small for n=%d (skips not counted?)", steps, n)
	}
	if sim.LiveStates() != 2 {
		t.Fatalf("live states = %d, want 2", sim.LiveStates())
	}
}

func TestCountSimulatorFrozenRunsBudget(t *testing.T) {
	sim := pp.NewCountSimulator[int](frozen, 32, 1)
	sim.RunSteps(10_000_000)
	if sim.Steps() != 10_000_000 {
		t.Fatalf("steps = %d, want 10000000", sim.Steps())
	}
	if !sim.VerifyStable(1_000_000) {
		t.Fatal("frozen population reported unstable")
	}
	if _, ok := sim.RunUntilLeaders(-1, 20_000_000); ok {
		t.Fatal("frozen population cannot reach -1 leaders")
	}
	if sim.Steps() != 20_000_000 {
		t.Fatalf("budget not honored: %d steps", sim.Steps())
	}
}

func TestCountSimulatorStepGranularity(t *testing.T) {
	sim := pp.NewCountSimulator[bool](duel, 64, 9)
	for k := uint64(1); k <= 200; k++ {
		sim.Step()
		if sim.Steps() != k {
			t.Fatalf("after %d Step calls the counter reads %d", k, sim.Steps())
		}
	}
}

func TestCountSimulatorPanicsOnSingletonStep(t *testing.T) {
	sim := pp.NewCountSimulator[bool](duel, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Step on a population of 1 did not panic")
		}
	}()
	sim.Step()
}

func TestCountSimulatorForEachEmitsEveryAgent(t *testing.T) {
	sim := pp.NewCountSimulator[bool](duel, 100, 4)
	sim.RunSteps(500)
	ids := make(map[int]bool)
	leaders := 0
	sim.ForEach(func(id int, s bool) {
		ids[id] = true
		if s {
			leaders++
		}
	})
	if len(ids) != 100 {
		t.Fatalf("ForEach emitted %d distinct ids, want 100", len(ids))
	}
	if leaders != sim.Leaders() {
		t.Fatalf("ForEach saw %d leaders, census says %d", leaders, sim.Leaders())
	}
}

// TestCountSimulatorCloneSharesFuture: the clone carries the scheduler and
// the batching mode, so both produce the identical stream.
func TestCountSimulatorCloneSharesFuture(t *testing.T) {
	a := pp.NewCountSimulator[bool](duel, 4096, 21)
	a.RunSteps(20_000) // deep enough that batching has engaged
	b := a.Clone()
	sa, okA := a.RunUntilLeaders(1, 1<<62)
	sb, okB := b.RunUntilLeaders(1, 1<<62)
	if sa != sb || okA != okB {
		t.Fatalf("clone diverged: (%d,%v) vs (%d,%v)", sa, okA, sb, okB)
	}
}
