package pp_test

import (
	"testing"
	"testing/quick"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
)

// duel and frozen are the pptest fixture protocols; aliases keep the test
// bodies close to the paper's wording.
var (
	duel   = pptest.Duel{}
	frozen = pptest.Frozen{}
)

func TestNewSimulatorInitialCensus(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 10, Seed: 1}, "initial-census",
		func(t *testing.T, tc pptest.TestCase[bool], sim pp.Runner[bool]) {
			if sim.N() != 10 {
				t.Fatalf("N = %d, want 10", sim.N())
			}
			if sim.Leaders() != 10 {
				t.Fatalf("initial leaders = %d, want 10", sim.Leaders())
			}
			if sim.Steps() != 0 {
				t.Fatalf("initial steps = %d, want 0", sim.Steps())
			}
		})
}

func TestNewSimulatorPanicsOnEmpty(t *testing.T) {
	for _, engine := range pp.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("constructor with n=0 did not panic")
				}
			}()
			pp.NewRunner[bool](engine, duel, 0, 1)
		})
	}
}

func TestInteractUpdatesLeaderCount(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 4, 1)
	sim.Interact(0, 1)
	if sim.Leaders() != 3 {
		t.Fatalf("leaders after one duel = %d, want 3", sim.Leaders())
	}
	if sim.RoleChanges() != 1 {
		t.Fatalf("role changes = %d, want 1", sim.RoleChanges())
	}
	// Interacting a leader with a follower changes nothing.
	sim.Interact(0, 1)
	if sim.Leaders() != 3 || sim.RoleChanges() != 1 {
		t.Fatalf("leader-follower duel changed census: leaders=%d changes=%d",
			sim.Leaders(), sim.RoleChanges())
	}
}

func TestInteractPanicsOnSelf(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("self-interaction did not panic")
		}
	}()
	sim.Interact(2, 2)
}

func TestRunUntilLeadersStabilizes(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100} {
		tc := pptest.TestCase[bool]{Proto: duel, N: n, Seed: uint64(n)}
		pptest.RunAllEngines(t, tc, "elect",
			func(t *testing.T, tc pptest.TestCase[bool], sim pp.Runner[bool]) {
				steps := pptest.ElectOne(t, tc, sim)
				if steps != sim.Steps() {
					t.Fatalf("returned steps %d != sim steps %d", steps, sim.Steps())
				}
			})
	}
}

func TestRunUntilLeadersRespectsBudget(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[int]{Proto: frozen, N: 10, Seed: 1}, "frozen-budget",
		func(t *testing.T, _ pptest.TestCase[int], sim pp.Runner[int]) {
			steps, ok := sim.RunUntilLeaders(1, 0)
			// frozen has zero leaders; target 1 is already met (0 <= 1).
			if !ok || steps != 0 {
				t.Fatalf("frozen run: steps=%d ok=%v, want 0,true", steps, ok)
			}
		})
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 1000, Seed: 1}, "tiny-budget",
		func(t *testing.T, _ pptest.TestCase[bool], sim pp.Runner[bool]) {
			if _, ok := sim.RunUntilLeaders(1, 5); ok {
				t.Fatal("1000-agent duel cannot stabilize in 5 steps")
			}
			if sim.Steps() != 5 {
				t.Fatalf("budget overrun: %d steps", sim.Steps())
			}
		})
}

func TestSingleAgentPopulation(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 1, Seed: 1}, "single-agent",
		func(t *testing.T, _ pptest.TestCase[bool], sim pp.Runner[bool]) {
			steps, ok := sim.RunUntilLeaders(1, 100)
			if !ok || steps != 0 {
				t.Fatalf("n=1: steps=%d ok=%v, want immediate stabilization", steps, ok)
			}
			if !sim.VerifyStable(100) {
				t.Fatal("n=1 population reported unstable")
			}
		})
}

func TestVerifyStable(t *testing.T) {
	pptest.RunAllEngines(t, pptest.TestCase[bool]{Proto: duel, N: 50, Seed: 7}, "verify-stable",
		func(t *testing.T, tc pptest.TestCase[bool], sim pp.Runner[bool]) {
			if sim.VerifyStable(200) {
				t.Fatal("all-leader initial configuration reported stable")
			}
			pptest.ElectOne(t, tc, sim)
			if !sim.VerifyStable(5000) {
				t.Fatal("single-leader duel configuration reported unstable")
			}
		})
}

func TestSetStateAdjustsCensus(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 5, 1)
	sim.SetState(0, false)
	if sim.Leaders() != 4 {
		t.Fatalf("leaders = %d after demoting one agent, want 4", sim.Leaders())
	}
	sim.SetState(0, true)
	if sim.Leaders() != 5 {
		t.Fatalf("leaders = %d after re-promoting, want 5", sim.Leaders())
	}
	// No-op overwrite keeps the census.
	sim.SetState(1, true)
	if sim.Leaders() != 5 {
		t.Fatalf("no-op SetState changed census to %d", sim.Leaders())
	}
}

func TestCensus(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 6, 1)
	sim.Interact(0, 1)
	sim.Interact(2, 3)
	c := sim.Census()
	if c[true] != 4 || c[false] != 2 {
		t.Fatalf("census = %v, want 4 leaders / 2 followers", c)
	}
	byRole := pp.CensusBy[bool](sim, func(s bool) pp.Role {
		if s {
			return pp.Leader
		}
		return pp.Follower
	})
	if byRole[pp.Leader] != 4 || byRole[pp.Follower] != 2 {
		t.Fatalf("CensusBy = %v", byRole)
	}
}

func TestTrackStates(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 4, 1)
	if sim.DistinctStates() != 0 {
		t.Fatal("tracking should be off by default")
	}
	sim.TrackStates()
	if sim.DistinctStates() != 1 {
		t.Fatalf("distinct initial states = %d, want 1", sim.DistinctStates())
	}
	sim.Interact(0, 1)
	if sim.DistinctStates() != 2 {
		t.Fatalf("distinct states after duel = %d, want 2", sim.DistinctStates())
	}
	sim.TrackStates() // idempotent
	if sim.DistinctStates() != 2 {
		t.Fatal("TrackStates reset the seen set")
	}
}

func TestDeterministicReplay(t *testing.T) {
	for _, engine := range pp.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			tc := pptest.TestCase[bool]{Proto: duel, N: 64, Seed: 99, Engine: engine}
			a, b := tc.NewRunner(), tc.NewRunner()
			sa, _ := a.RunUntilLeaders(1, 1<<40)
			sb, _ := b.RunUntilLeaders(1, 1<<40)
			if sa != sb {
				t.Fatalf("same seed produced different stabilization steps: %d vs %d", sa, sb)
			}
			ca, cb := a.Census(), b.Census()
			if len(ca) != len(cb) || ca[true] != cb[true] || ca[false] != cb[false] {
				t.Fatalf("censuses differ between replays: %v vs %v", ca, cb)
			}
			// The per-agent engine must replay agent by agent.
			if sa, ok := a.(*pp.Simulator[bool]); ok {
				sb := b.(*pp.Simulator[bool])
				for i := 0; i < sa.N(); i++ {
					if sa.State(i) != sb.State(i) {
						t.Fatalf("agent %d state differs between replays", i)
					}
				}
			}
		})
	}
}

func TestRoundRobinCoversAllPairs(t *testing.T) {
	var rr pp.RoundRobin
	const n = 4
	seen := make(map[[2]int]bool)
	for k := 0; k < n*(n-1); k++ {
		i, j := rr.Next(n)
		if i == j {
			t.Fatal("round robin emitted self-pair")
		}
		seen[[2]int{i, j}] = true
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("round robin covered %d pairs in one cycle, want %d", len(seen), n*(n-1))
	}
}

func TestFixedScheduleReplaysAndValidates(t *testing.T) {
	f := &pp.Fixed{Pairs: [][2]int{{0, 1}, {1, 2}}}
	i, j := f.Next(3)
	if i != 0 || j != 1 {
		t.Fatalf("first pair = (%d,%d)", i, j)
	}
	i, j = f.Next(3)
	if i != 1 || j != 2 {
		t.Fatalf("second pair = (%d,%d)", i, j)
	}
	i, j = f.Next(3) // wraps
	if i != 0 || j != 1 {
		t.Fatalf("wrapped pair = (%d,%d)", i, j)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range fixed pair did not panic")
		}
	}()
	f.Next(2) // pair (1,2) is invalid for n=2 on the next wrap
	f.Next(2)
}

func TestStarveKeepsInactiveAgentsFrozen(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 10, 1)
	sched := &pp.Starve{Active: 3}
	sim.RunSchedule(sched, 1000)
	// Agents 3..9 never interacted: still leaders.
	for i := 3; i < 10; i++ {
		if sim.State(i) != true {
			t.Fatalf("starved agent %d changed state", i)
		}
	}
	// Among the active three, duels happened; at least one leader remains
	// overall (safety under adversarial schedules).
	if sim.Leaders() < 8 {
		t.Fatalf("leaders = %d, want >= 8 (7 starved + >=1 active)", sim.Leaders())
	}
}

func TestRunScheduleAdvancesSteps(t *testing.T) {
	sim := pp.NewSimulator[bool](duel, 5, 1)
	var rr pp.RoundRobin
	sim.RunSchedule(&rr, 42)
	if sim.Steps() != 42 {
		t.Fatalf("steps = %d, want 42", sim.Steps())
	}
}

// TestMeasureStabilization: every engine elects the duel fixture in
// every run of a replicated measurement, and the measurement is
// reproducible across worker counts.
func TestMeasureStabilization(t *testing.T) {
	type run struct {
		steps   uint64
		ok      bool
		leaders int
		time    float64
	}
	measure := func(engine pp.Engine, workers int) []run {
		runs := make([]run, 20)
		pptest.Parallel(len(runs), workers, 7, func(rep int, seed uint64) {
			sim := pp.NewRunner[bool](engine, duel, 50, seed)
			steps, ok := sim.RunUntilLeaders(1, 1<<40)
			runs[rep] = run{steps, ok, sim.Leaders(), sim.ParallelTime()}
		})
		return runs
	}
	for _, engine := range pp.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			runs := measure(engine, 2)
			for i, r := range runs {
				if !r.ok {
					t.Fatalf("rep %d did not stabilize", i)
				}
				if r.leaders != 1 {
					t.Fatalf("rep %d ended with %d leaders", i, r.leaders)
				}
				if r.time <= 0 {
					t.Fatalf("rep %d parallel time %v", i, r.time)
				}
			}
			again := measure(engine, 4)
			for i := range runs {
				if runs[i].steps != again[i].steps {
					t.Fatalf("rep %d not reproducible across worker counts", i)
				}
			}
		})
	}
}

// TestQuickLeaderCountNeverNegative drives random interactions through the
// fixture on every engine and checks census sanity as a property.
func TestQuickLeaderCountNeverNegative(t *testing.T) {
	for _, engine := range pp.Engines() {
		f := func(seed uint64, steps uint16) bool {
			sim := pp.NewRunner[bool](engine, duel, 12, seed)
			sim.RunSteps(uint64(steps))
			recount := 0
			sim.ForEach(func(_ int, s bool) {
				if s {
					recount++
				}
			})
			return recount == sim.Leaders() && recount >= 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
	}
}

func BenchmarkStepDuel(b *testing.B) {
	sim := pp.NewSimulator[bool](duel, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
