package registry_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

func TestCatalogKeys(t *testing.T) {
	want := []string{"pll", "pll-sym", "angluin", "lottery", "maxid", "epidemic"}
	got := registry.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Keys()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, e := range registry.Entries() {
		if e.Summary == "" || e.States == "" || e.Time == "" {
			t.Errorf("entry %q is missing catalog documentation", e.Key)
		}
		if e.StateCount(1024, 0) <= 0 {
			t.Errorf("entry %q: StateCount(1024, 0) = %d, want > 0", e.Key, e.StateCount(1024, 0))
		}
		if e.StepBudget(1024) == 0 {
			t.Errorf("entry %q: StepBudget(1024) = 0", e.Key)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := registry.Lookup("pll"); !ok {
		t.Error(`Lookup("pll") not found`)
	}
	if _, ok := registry.Lookup("nope"); ok {
		t.Error(`Lookup("nope") unexpectedly found`)
	}
}

// TestNewRejectsBadSpecs is the satellite requirement that registry
// construction reports errors instead of panicking.
func TestNewRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec registry.Spec
		want string
	}{
		{"unknown protocol", registry.Spec{Protocol: "raft", N: 100}, "unknown protocol"},
		{"n too small", registry.Spec{Protocol: "pll", N: 1}, "population size"},
		{"n negative", registry.Spec{Protocol: "angluin", N: -5}, "population size"},
		{"symmetric pair", registry.Spec{Protocol: "pll-sym", N: 2}, "population size"},
		{"bad engine", registry.Spec{Protocol: "pll", N: 100, Engine: pp.Engine(9)}, "unknown engine"},
		{"m too small for n", registry.Spec{Protocol: "pll", N: 1 << 20, M: 3}, "m ≥ log₂ n"},
		{"m negative", registry.Spec{Protocol: "pll-sym", N: 100, M: -1}, "m ="},
		{"m on m-less protocol", registry.Spec{Protocol: "angluin", N: 100, M: 7}, "takes no m"},
		{"m on epidemic", registry.Spec{Protocol: "epidemic", N: 100, M: 7}, "takes no m"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			el, err := registry.New(c.spec)
			if err == nil {
				t.Fatalf("New(%+v) succeeded, want error containing %q", c.spec, c.want)
			}
			if !errors.Is(err, registry.ErrBadSpec) {
				t.Errorf("error %v does not wrap ErrBadSpec", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			if el != nil {
				t.Errorf("New returned a non-nil election alongside the error")
			}
		})
	}
}

// TestSmallSpecsBuildAndRun: at the smallest population sizes, on every
// engine, a spec either fails Validate (exactly below the entry's MinN,
// with New failing the same way) or builds and runs a short Drive. A
// spec that passes Validate must never panic: the service builds it on a
// worker goroutine, where a panic ends the process.
func TestSmallSpecsBuildAndRun(t *testing.T) {
	engines := append(pp.Engines(), pp.EngineAuto)
	for _, entry := range registry.Entries() {
		for n := 0; n <= 4; n++ {
			for _, engine := range engines {
				spec := registry.Spec{Protocol: entry.Key, N: n, Engine: engine, Seed: 1}
				t.Run(fmt.Sprintf("%s/n=%d/%s", entry.Key, n, engine), func(t *testing.T) {
					_, verr := registry.Validate(spec)
					if (verr == nil) != (n >= entry.MinN) {
						t.Fatalf("Validate = %v with MinN %d", verr, entry.MinN)
					}
					el, err := registry.New(spec)
					if verr != nil {
						if !errors.Is(err, registry.ErrBadSpec) {
							t.Fatalf("New = %v, want ErrBadSpec as Validate reported", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("Validate accepted the spec but New failed: %v", err)
					}
					defer el.Release()
					ensemble.Drive(context.Background(), el, entry.Target, uint64(100*n), 0, nil)
					total := 0
					for _, c := range el.Census() {
						total += c
					}
					if total != n {
						t.Fatalf("census sums to %d after %d steps, want %d", total, el.Steps(), n)
					}
				})
			}
		}
	}
}

// TestEveryEntryStabilizes runs every catalog entry to its target on both
// engines at a small population.
func TestEveryEntryStabilizes(t *testing.T) {
	for _, entry := range registry.Entries() {
		for _, engine := range pp.Engines() {
			t.Run(entry.Key+"/"+engine.String(), func(t *testing.T) {
				const n = 512
				el, err := registry.New(registry.Spec{
					Protocol: entry.Key, N: n, Engine: engine, Seed: 42,
				})
				if err != nil {
					t.Fatal(err)
				}
				if el.Key() != entry.Key {
					t.Errorf("Key() = %q, want %q", el.Key(), entry.Key)
				}
				if el.N() != n {
					t.Errorf("N() = %d, want %d", el.N(), n)
				}
				if el.Description() == "" {
					t.Error("empty Description()")
				}
				if _, ok := el.RunUntilLeaders(el.Target(), entry.StepBudget(n)); !ok {
					t.Fatalf("did not reach %d leaders within budget (%d remain)",
						el.Target(), el.Leaders())
				}
				if el.Leaders() != el.Target() {
					t.Errorf("Leaders() = %d, want %d", el.Leaders(), el.Target())
				}
				census := el.Census()
				total := 0
				for _, c := range census {
					total += c
				}
				if total != n {
					t.Errorf("census sums to %d, want %d", total, n)
				}
				if el.LiveStates() < 1 || el.LiveStates() > len(census) {
					t.Errorf("LiveStates() = %d inconsistent with census of %d keys",
						el.LiveStates(), len(census))
				}
				wantID := engine == pp.EngineAgent && el.Target() == 1
				if id := el.LeaderID(); (id >= 0) != wantID {
					t.Errorf("LeaderID() = %d on %s engine with target %d",
						id, engine, el.Target())
				}
			})
		}
	}
}

// TestDeterminism: identical specs must reproduce identical runs — the
// property the service's result cache relies on.
func TestDeterminism(t *testing.T) {
	spec := registry.Spec{Protocol: "pll", N: 300, Engine: pp.EngineCount, Seed: 7}
	run := func() (uint64, map[string]int) {
		el, err := registry.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		el.RunUntilLeaders(1, 1<<40)
		return el.Steps(), el.Census()
	}
	steps1, census1 := run()
	steps2, census2 := run()
	if steps1 != steps2 {
		t.Errorf("steps differ across identical specs: %d vs %d", steps1, steps2)
	}
	if registry.CensusString(census1) != registry.CensusString(census2) {
		t.Errorf("censuses differ across identical specs:\n%s\n%s",
			registry.CensusString(census1), registry.CensusString(census2))
	}
}

func TestCensusString(t *testing.T) {
	got := registry.CensusString(map[string]int{"b": 2, "a": 2, "c": 9})
	want := "c:9 a:2 b:2"
	if got != want {
		t.Errorf("CensusString = %q, want %q", got, want)
	}
}

// TestEngineSuitability: the advisory engine metadata must keep every
// engine valid while steering big populations to the census-based engines
// (and MaxID away from them).
func TestEngineSuitability(t *testing.T) {
	for _, e := range registry.Entries() {
		suited := e.SuitableEngines()
		if len(suited) == 0 {
			t.Fatalf("%s: no suitable engines", e.Key)
		}
		rec := e.RecommendedEngine(10_000_000)
		if e.Key == "maxid" {
			if rec != pp.EngineAgent {
				t.Errorf("maxid recommends %v at n=10^7, want agent", rec)
			}
		} else {
			if rec != pp.EngineHybrid {
				t.Errorf("%s recommends %v at n=10^7, want hybrid", e.Key, rec)
			}
			if e.RecommendedEngine(100) != pp.EngineAgent {
				t.Errorf("%s recommends %v at n=100, want agent", e.Key, e.RecommendedEngine(100))
			}
		}
		// Suitability is advisory: every declared engine validates.
		for _, eng := range pp.Engines() {
			if _, err := registry.Validate(registry.Spec{Protocol: e.Key, N: 64, Engine: eng}); err != nil {
				t.Errorf("%s on %v rejected: %v", e.Key, eng, err)
			}
		}
	}
}

// TestHybridStatsOnlyForHybrid: every census engine runs on the same
// controller, but only hybrid results carry its telemetry, so job results,
// /metrics and benchmark layers keep their per-engine shape.
func TestHybridStatsOnlyForHybrid(t *testing.T) {
	for _, engine := range pp.Engines() {
		el, err := registry.New(registry.Spec{Protocol: "pll", N: 300, Engine: engine, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		el.RunSteps(3000)
		st, ok := el.HybridStats()
		if want := engine == pp.EngineHybrid; ok != want {
			t.Errorf("%s: HybridStats ok = %v, want %v", engine, ok, want)
		}
		if ok && st.Steps != el.Steps() {
			t.Errorf("%s: HybridStats.Steps = %d, election at %d", engine, st.Steps, el.Steps())
		}
	}
}
