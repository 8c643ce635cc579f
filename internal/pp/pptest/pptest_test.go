package pptest_test

import (
	"testing"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
)

func TestTestString(t *testing.T) {
	tc := pptest.TestCase[bool]{Proto: pptest.Duel{}, N: 128, Seed: 3}
	if got, want := pptest.TestString(tc, "elect"), "duel-fixture/n=128/seed=3/engine=agent/elect"; got != want {
		t.Fatalf("TestString = %q, want %q", got, want)
	}
	tc = tc.WithEngine(pp.EngineCount)
	if got, want := pptest.TestString(tc, "verify"), "duel-fixture/n=128/seed=3/engine=count/verify"; got != want {
		t.Fatalf("TestString = %q, want %q", got, want)
	}
}

func TestBudgetDefault(t *testing.T) {
	tc := pptest.TestCase[bool]{Proto: pptest.Duel{}, N: 4, Seed: 1}
	if tc.Budget() != pptest.DefaultMaxSteps {
		t.Fatalf("default budget = %d", tc.Budget())
	}
	tc.MaxSteps = 77
	if tc.Budget() != 77 {
		t.Fatalf("explicit budget = %d", tc.Budget())
	}
}

func TestRunAllEnginesCoversBothEngines(t *testing.T) {
	seen := map[string]bool{}
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: pptest.Duel{}, N: 8, Seed: 1}, "probe",
		func(t *testing.T, tc pptest.TestCase[bool], sim pp.Runner[bool]) {
			seen[tc.Engine.String()] = true
			if sim.N() != 8 {
				t.Fatalf("runner has n=%d", sim.N())
			}
		})
	if !seen["agent"] || !seen["count"] {
		t.Fatalf("engines covered: %v", seen)
	}
}

func TestFixtures(t *testing.T) {
	var d pp.Protocol[bool] = pptest.Duel{}
	if d.Output(d.InitialState()) != pp.Leader {
		t.Fatal("duel agents must start as leaders")
	}
	var f pp.Protocol[int] = pptest.Frozen{}
	if a, b := f.Transition(1, 2); a != 1 || b != 2 {
		t.Fatal("frozen must be the identity")
	}
}

func TestParallelRunsEveryRepOnce(t *testing.T) {
	const reps = 100
	hits := make([]int, reps)
	var seeds = make([]uint64, reps)
	pptest.Parallel(reps, 4, 123, func(rep int, seed uint64) {
		hits[rep]++
		seeds[rep] = seed
	})
	for rep, h := range hits {
		if h != 1 {
			t.Fatalf("rep %d ran %d times", rep, h)
		}
	}
	// Seeds must be deterministic across invocations.
	again := make([]uint64, reps)
	pptest.Parallel(reps, 2, 123, func(rep int, seed uint64) { again[rep] = seed })
	for rep := range seeds {
		if seeds[rep] != again[rep] {
			t.Fatalf("rep %d seed differs across invocations", rep)
		}
	}
}

func TestParallelZeroReps(t *testing.T) {
	called := false
	pptest.Parallel(0, 4, 1, func(int, uint64) { called = true })
	if called {
		t.Fatal("task called for zero reps")
	}
}
