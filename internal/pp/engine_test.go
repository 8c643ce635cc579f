package pp_test

import (
	"reflect"
	"strings"
	"testing"

	"popproto/internal/pp"
)

// TestParseEngineRoundTrip: every engine's String spelling parses back to
// itself.
func TestParseEngineRoundTrip(t *testing.T) {
	for _, e := range pp.Engines() {
		got, err := pp.ParseEngine(e.String())
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", e.String(), err)
		}
		if got != e {
			t.Errorf("ParseEngine(%q) = %v, want %v", e.String(), got, e)
		}
	}
}

// TestParseEngineErrorListsValidNames: the error for an unknown engine
// must enumerate every valid spelling.
func TestParseEngineErrorListsValidNames(t *testing.T) {
	_, err := pp.ParseEngine("quantum")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"quantum"`) {
		t.Errorf("error %q does not name the rejected input", msg)
	}
	for _, e := range pp.Engines() {
		if !strings.Contains(msg, e.String()) {
			t.Errorf("error %q does not list valid engine %q", msg, e.String())
		}
	}
}

// TestEachStateMatchesCensus: on every engine, EachState and LiveStates
// agree with Census, CensusBy agrees with a count through ForEach, and
// ids are distinct table indexes — until the agent engine spills, after
// which it reports id -1. mint mints about one state
// per interaction, so the agent engine spills within its first few
// hundred interactions; leader accounting survives the spill, including
// through SetState.
func TestEachStateMatchesCensus(t *testing.T) {
	for _, e := range pp.Engines() {
		r := pp.NewRunner[mintState](e, mint{}, 512, 3)
		for _, k := range []uint64{0, 40, 5000} {
			r.RunSteps(k)
			census := r.Census()
			got := make(map[mintState]int)
			ids := make(map[int]bool)
			spilled := false
			r.EachState(func(id int, s mintState, c int) {
				got[s] += c
				spilled = id < 0
				if id >= 0 && ids[id] {
					t.Errorf("%s after %d steps: id %d repeated", e, r.Steps(), id)
				}
				ids[id] = true
			})
			if !reflect.DeepEqual(got, census) {
				t.Errorf("%s after %d steps: EachState disagrees with Census", e, r.Steps())
			}
			if r.LiveStates() != len(census) {
				t.Errorf("%s after %d steps: LiveStates = %d, Census has %d states",
					e, r.Steps(), r.LiveStates(), len(census))
			}
			if wantSpill := e == pp.EngineAgent && k == 5000; spilled != wantSpill {
				t.Errorf("%s after %d steps: spilled = %v, want %v", e, r.Steps(), spilled, wantSpill)
			}
			// CensusBy walks EachState; it must agree with a count over
			// every agent.
			classify := func(s mintState) mintState { return s % 4 }
			perAgent := make(map[mintState]int)
			r.ForEach(func(_ int, s mintState) { perAgent[classify(s)]++ })
			if by := pp.CensusBy(r, classify); !reflect.DeepEqual(by, perAgent) {
				t.Errorf("%s after %d steps: CensusBy = %v, ForEach counts %v", e, r.Steps(), by, perAgent)
			}
		}
	}
	sim := pp.NewSimulator[mintState](mint{}, 512, 3)
	sim.RunSteps(5000)
	for i := 0; i < 10; i++ {
		sim.SetState(i, mintState(2*i+1)) // followers
	}
	leaders := 0
	sim.ForEach(func(_ int, s mintState) {
		if (mint{}).Output(s) == pp.Leader {
			leaders++
		}
	})
	if sim.Leaders() != leaders {
		t.Fatalf("Leaders() = %d after SetState on a spilled simulator, want %d", sim.Leaders(), leaders)
	}
}
