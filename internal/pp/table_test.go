package pp_test

import (
	"fmt"
	"testing"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/pp"
)

// climb mints a state per interaction: the initiator moves one past the
// larger of the two states. On two agents a run of k interactions visits
// about k states, slowly enough (a few per unit of parallel time) that
// the agent engine never spills on rate.
type climb struct{}

func (climb) Name() string                         { return "climb" }
func (climb) InitialState() int32                  { return 0 }
func (climb) Output(int32) pp.Role                 { return pp.Follower }
func (climb) Transition(a, b int32) (int32, int32) { return max(a, b) + 1, b }

func pllTable(t *testing.T, n int) *pp.Table[core.State] {
	return pp.NewTable[core.State](core.New(mustParams(t, n)), n)
}

func runOutcome[S comparable](sim *pp.Simulator[S]) string {
	sim.RunUntilLeaders(1, 1<<32)
	return fmt.Sprintf("steps=%d leaders=%d roles=%d census=%s",
		sim.Steps(), sim.Leaders(), sim.RoleChanges(), censusHash(sim.Census()))
}

// TestCloneOfBorrowedTable: a clone owns copies of its original's table
// and memo, so it runs on unchanged after the original handed the table
// back and another run reused it, and its own Release pools nothing.
func TestCloneOfBorrowedTable(t *testing.T) {
	const n = 200
	table := pllTable(t, n)
	sim := pp.NewSimulatorOn(table, 7)
	sim.RunSteps(20 * n)
	clone := sim.Clone()
	want := runOutcome(sim)
	if got := sim.Release(); got != table {
		t.Fatalf("Release handed back %p, want the borrowed table %p", got, table)
	}

	other := pp.NewSimulatorOn(table, 8)
	runOutcome(other)
	if got := runOutcome(clone); got != want {
		t.Errorf("clone after its table was reused: %s, want %s", got, want)
	}
	if got := clone.Release(); got != nil {
		t.Error("a clone handed a table back")
	}
	if got := other.Release(); got != table {
		t.Errorf("second borrower handed back %p, want %p", got, table)
	}
}

// TestBorrowTwicePanics: a table serves one simulator at a time.
func TestBorrowTwicePanics(t *testing.T) {
	table := pllTable(t, 50)
	pp.NewSimulatorOn(table, 1)
	defer func() {
		if recover() == nil {
			t.Error("a borrowed table was borrowed again")
		}
	}()
	pp.NewSimulatorOn(table, 2)
}

// TestSpilledRunReturnsNoTable: a MaxID run past the spill point has
// dropped its table, so Release hands nothing back.
func TestSpilledRunReturnsNoTable(t *testing.T) {
	sim := pp.NewSimulator[baseline.MaxIDState](baseline.NewMaxID(2000), 2000, 3)
	sim.RunUntilLeaders(1, 1<<32)
	spilled := false
	sim.EachState(func(id int, _ baseline.MaxIDState, _ int) { spilled = spilled || id < 0 })
	if !spilled {
		t.Fatal("maxid n=2000 did not spill")
	}
	if sim.Release() != nil {
		t.Error("a spilled run handed its table back")
	}
}

// TestTablePastCapDropped: the spill rule counts only the states a run
// adds, so a warm table can grow past the agent engine's state cap over
// several runs without spilling; Release then drops it rather than hand
// back a table whose 2-byte agent indexes could overflow.
func TestTablePastCapDropped(t *testing.T) {
	table := pp.NewTable[int32](climb{}, 2)
	first := pp.NewSimulatorOn(table, 1)
	first.RunSteps(3000)
	if got := first.Release(); got != table {
		t.Fatal("a 3000-state table was not handed back")
	}
	second := pp.NewSimulatorOn(table, 2)
	second.RunSteps(4500)
	spilled := false
	second.EachState(func(id int, _ int32, _ int) { spilled = spilled || id < 0 })
	if spilled {
		t.Fatal("the second run spilled; the cap check is not reached")
	}
	if got := second.Release(); got != nil {
		t.Error("a table past the cap was handed back")
	}
}

// TestWarmSimulatorMatchesFresh: on the pp surface, runs of several
// seeds on one table handed from run to run match fresh runs.
func TestWarmSimulatorMatchesFresh(t *testing.T) {
	const n = 100
	table := pllTable(t, n)
	for seed := uint64(1); seed <= 6; seed++ {
		fresh := pp.NewSimulator[core.State](core.New(mustParams(t, n)), n, seed)
		warm := pp.NewSimulatorOn(table, seed)
		if got, want := runOutcome(warm), runOutcome(fresh); got != want {
			t.Errorf("seed %d: warm %s, fresh %s", seed, got, want)
		}
		if table = warm.Release(); table == nil {
			t.Fatalf("seed %d: PLL run handed no table back", seed)
		}
	}
}

func mustParams(t *testing.T, n int) core.Params {
	t.Helper()
	params, err := core.ParamsFor(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return params
}
