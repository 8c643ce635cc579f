package pp_test

import (
	"testing"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
)

// TestCloneProducesIdenticalFutures: a clone carries the scheduler
// position, so original and clone evolve identically step for step — on
// every engine.
func TestCloneProducesIdenticalFutures(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 64, Seed: 42}, "clone-futures",
		func(t *testing.T, _ pptest.TestCase[bool], a pp.Runner[bool]) {
			a.RunSteps(500) // advance to a nontrivial prefix
			b := a.CloneRunner()

			for k := 0; k < 2000; k++ {
				a.Step()
				b.Step()
			}
			if a.Steps() != b.Steps() || a.Leaders() != b.Leaders() {
				t.Fatalf("clone diverged: steps %d/%d leaders %d/%d",
					a.Steps(), b.Steps(), a.Leaders(), b.Leaders())
			}
			ca, cb := a.Census(), b.Census()
			if ca[true] != cb[true] || ca[false] != cb[false] {
				t.Fatalf("censuses differ after identical futures: %v vs %v", ca, cb)
			}
			// On the per-agent engine the futures must match agent by
			// agent, not just in aggregate.
			if sa, ok := a.(*pp.Simulator[bool]); ok {
				sb := b.(*pp.Simulator[bool])
				for i := 0; i < sa.N(); i++ {
					if sa.State(i) != sb.State(i) {
						t.Fatalf("agent %d differs after identical futures", i)
					}
				}
			}
		})
}

// TestCloneIsIndependent: mutating the clone leaves the original alone.
func TestCloneIsIndependent(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 16, Seed: 7}, "clone-independent",
		func(t *testing.T, _ pptest.TestCase[bool], a pp.Runner[bool]) {
			b := a.CloneRunner()
			b.RunSteps(1000)
			if a.Steps() != 0 {
				t.Fatalf("original advanced: %d steps", a.Steps())
			}
			if a.Leaders() != 16 {
				t.Fatalf("original census changed: %d leaders", a.Leaders())
			}
		})

	a := pp.NewSimulator[bool](duel, 16, 7)
	b := a.Clone()
	b.SetState(0, false)
	if a.State(0) != true {
		t.Fatal("original agent mutated through the clone")
	}
}

// TestCloneCarriesTracking: the distinct-state tracker is deep-copied.
func TestCloneCarriesTracking(t *testing.T) {
	a := pp.NewSimulator[bool](duel, 8, 7)
	a.TrackStates()
	a.Interact(0, 1)
	b := a.Clone()
	if b.DistinctStates() != a.DistinctStates() {
		t.Fatalf("tracking lost: %d vs %d", b.DistinctStates(), a.DistinctStates())
	}
	// New observations on the clone must not leak back.
	before := a.DistinctStates()
	b.SetState(0, false)
	b.Interact(0, 1)
	if a.DistinctStates() != before {
		t.Fatal("clone observation leaked into the original")
	}
}

// TestCloneWithoutTracking: cloning an untracked simulator stays
// untracked, on every engine that can track states at all.
func TestCloneWithoutTracking(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 8, Seed: 7}, "clone-untracked",
		func(t *testing.T, _ pptest.TestCase[bool], a pp.Runner[bool]) {
			b, ok := a.CloneRunner().(interface{ DistinctStates() int })
			if ok && b.DistinctStates() != 0 {
				t.Fatal("clone invented a tracker")
			}
		})
}
