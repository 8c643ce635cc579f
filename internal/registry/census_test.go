package registry

import (
	"encoding/json"
	"fmt"
	"testing"

	"popproto/internal/core"
	"popproto/internal/pp"
)

// spilled reports whether the runner hands out states without a state
// table index (an agent engine past its spill point).
func (e *election[S]) spilled() bool {
	spilled := false
	e.run.EachState(func(id int, _ S, _ int) { spilled = spilled || id < 0 })
	return spilled
}

// censusCase records which of the cases the slot bookkeeping has to get
// right a check met.
type censusCase struct {
	collided, tied, spilled bool
}

// checkTopCensus compares TopCensus(k) with SortedCensus(Census()) cut
// after k entries, and its omitted counts with the states and agents of
// the rest, for k from 1 to past the live count.
func checkTopCensus(t *testing.T, what string, el Election, seen *censusCase) {
	t.Helper()
	census := el.Census()
	want := SortedCensus(census)
	seen.collided = seen.collided || el.LiveStates() > len(census)
	seen.spilled = seen.spilled || el.(interface{ spilled() bool }).spilled()
	for _, k := range []int{1, 7, 32, len(census) + 1} {
		top, omittedStates, omittedAgents := el.TopCensus(k)
		where := fmt.Sprintf("%s at step %d, k=%d", what, el.Steps(), k)
		cut := min(k, len(want))
		if fmt.Sprint(top) != fmt.Sprint(want[:cut]) {
			t.Fatalf("%s: TopCensus\n got  %v\n want %v", where, top, want[:cut])
		}
		agents := 0
		for _, e := range want[cut:] {
			agents += e.Count
		}
		if omittedStates != len(want)-cut || omittedAgents != agents {
			t.Fatalf("%s: omitted %d states, %d agents; want %d, %d",
				where, omittedStates, omittedAgents, len(want)-cut, agents)
		}
		seen.tied = seen.tied || k < len(want) && want[k-1].Count == want[k].Count
	}
}

// TestTopCensusMatchesSortedCensus checks TopCensus against the sorted
// full census on every catalog entry and engine at checkpoints through a
// run, and on PLL configurations whose renderings collide. The test
// fails unless the checks met renderings that collide, a tie between
// the k-th and the (k+1)-th count, and the spilled agent engine, whose
// states carry no table index (MaxID's).
func TestTopCensusMatchesSortedCensus(t *testing.T) {
	const n = 600
	var seen censusCase
	for _, entry := range Entries() {
		for _, engine := range pp.Engines() {
			el, err := New(Spec{Protocol: entry.Key, N: n, Engine: engine, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for checkpoint := 0; checkpoint < 7; checkpoint++ {
				if checkpoint > 0 {
					el.RunSteps(uint64(n) << (checkpoint - 1)) // parallel time 0, 1, 2, 4, …
				}
				checkTopCensus(t, entry.Key+"/"+engine.String(), el, &seen)
			}
		}
	}

	// PLL's State.String leaves out Init, which the protocol keeps equal
	// to Epoch between interactions, so a state whose Init differs renders
	// like the state it was taken from: two table indexes, one census key.
	el, err := New(Spec{Protocol: "pll", N: n, Engine: pp.EngineAgent, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim := el.(*election[core.State]).run.(*pp.Simulator[core.State])
	for round := 0; round < 3; round++ {
		el.RunSteps(2 * n)
		for i := round; i < n; i += 3 {
			st := sim.State(i)
			st.Init++
			sim.SetState(i, st)
		}
		checkTopCensus(t, "pll/agent with colliding renderings", el, &seen)
	}

	if !seen.collided {
		t.Error("no check met colliding renderings")
	}
	if !seen.tied {
		t.Error("no check met a tie at the k-th count")
	}
	if !seen.spilled {
		t.Error("no check met the spilled agent engine")
	}
}

// TestQuoteLikeMarshal: census names take encoding/json's string
// escaping, HTML characters, invalid UTF-8 and line separators included.
func TestQuoteLikeMarshal(t *testing.T) {
	for _, s := range []string{"X/L e1 c0", `a"b\c`, "<&>", "tab\there", "bad\xffutf8", "sep\u2028\u2029", "Φ=3"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := quote(s); got != string(want) {
			t.Errorf("quote(%q) = %s, want %s", s, got, want)
		}
	}
}
