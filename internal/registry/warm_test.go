package registry

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"popproto/internal/pp"
)

// resetPool empties the pool of warm tables, so the next agent-engine
// election of every spec runs on a fresh table.
func resetPool() {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.idle = nil
}

// idleTables returns the number of idle tables the pool holds for spec.
func idleTables(spec Spec) int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	key := poolKey{protocol: spec.Protocol, n: spec.N, m: spec.M}
	k := 0
	for _, t := range pool.idle {
		if t.key == key {
			k++
		}
	}
	return k
}

// runRecord is everything about a run that a warm table must leave as a
// fresh one does.
type runRecord struct {
	steps      uint64
	leaders    int
	census     string // CensusString of the final census
	trajectory uint64 // hash of TopCensus(32) and its omitted counts after every chunk
	leaderID   int
	stable     bool
}

// record drives el to its target in chunks of one parallel-time unit,
// reading TopCensus(32) after each, then reads the final configuration
// and verifies stability.
func record(el Election, budget uint64) runRecord {
	h := fnv.New64a()
	for el.Leaders() > el.Target() && el.Steps() < budget {
		el.RunUntilLeaders(el.Target(), min(el.Steps()+uint64(el.N()), budget))
		top, omittedStates, omittedAgents := el.TopCensus(32)
		fmt.Fprint(h, el.Steps(), top, omittedStates, omittedAgents)
	}
	return runRecord{
		steps:      el.Steps(),
		leaders:    el.Leaders(),
		census:     CensusString(el.Census()),
		trajectory: h.Sum64(),
		leaderID:   el.LeaderID(),
		stable:     el.VerifyStable(uint64(4 * el.N())),
	}
}

func mustNew(t testing.TB, spec Spec) Election {
	t.Helper()
	el, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// TestWarmTableMatchesFresh: on every catalog entry, a run on a table
// warmed by other seeds of its spec ends exactly where the same seed's
// run on a fresh table ends, and reads the same censuses on the way.
func TestWarmTableMatchesFresh(t *testing.T) {
	defer resetPool()
	seeds := []uint64{1, 2, 3, 4}
	for _, entry := range Entries() {
		for _, n := range []int{3, 50, 300} {
			budget := entry.StepBudget(n)
			spec := func(seed uint64) Spec {
				return Spec{Protocol: entry.Key, N: n, Engine: pp.EngineAgent, Seed: seed}
			}
			resetPool()
			fresh := make(map[uint64]runRecord)
			for _, seed := range seeds {
				fresh[seed] = record(mustNew(t, spec(seed)), budget) // never released
			}
			for _, seed := range []uint64{101, 102} {
				el := mustNew(t, spec(seed))
				record(el, budget)
				el.Release()
			}
			warmRuns := 0
			for _, seed := range seeds {
				if idleTables(spec(seed)) > 0 {
					warmRuns++
				}
				el := mustNew(t, spec(seed))
				got := record(el, budget)
				el.Release()
				if got != fresh[seed] {
					t.Errorf("%s n=%d seed %d: warm run %+v, fresh run %+v", entry.Key, n, seed, got, fresh[seed])
				}
			}
			// MaxID spills once its identifiers outnumber the spill
			// threshold, and a spilled run pools nothing.
			if entry.CensusFriendly && warmRuns != len(seeds) {
				t.Errorf("%s n=%d: %d of %d runs found a warm table", entry.Key, n, warmRuns, len(seeds))
			}
		}
	}
}

// TestWarmTablesConcurrent: goroutines borrowing and releasing the
// tables of one spec at once each see the fresh run of their seed. Run
// it under -race: a table handed to two elections at a time races.
func TestWarmTablesConcurrent(t *testing.T) {
	defer resetPool()
	const workers, seeds, rounds = 4, 12, 3
	for _, key := range []string{"pll", "lottery"} {
		spec := func(seed uint64) Spec {
			return Spec{Protocol: key, N: 64, Engine: pp.EngineAgent, Seed: seed}
		}
		budget := func() uint64 { e, _ := Lookup(key); return e.StepBudget(64) }()
		resetPool()
		fresh := make([]runRecord, seeds)
		for s := range fresh {
			fresh[s] = record(mustNew(t, spec(uint64(s))), budget)
		}
		var wg sync.WaitGroup
		errs := make(chan string, workers*seeds*rounds)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for k := 0; k < seeds; k++ {
						s := (k + w*seeds/workers) % seeds
						el, err := New(spec(uint64(s)))
						if err != nil {
							errs <- err.Error()
							return
						}
						if got := record(el, budget); got != fresh[s] {
							errs <- fmt.Sprintf("%s seed %d, worker %d round %d: warm run %+v, fresh run %+v",
								key, s, w, r, got, fresh[s])
						}
						el.Release()
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if idle := idleTables(spec(0)); idle < 1 || idle > workers {
			t.Errorf("%s: %d idle tables after %d workers finished", key, idle, workers)
		}
	}
}

// TestUseAfterReleasePanics: every method of a released election
// panics, on the agent engine (which pools its table) and off it.
func TestUseAfterReleasePanics(t *testing.T) {
	defer resetPool()
	calls := map[string]func(Election){
		"Key":             func(el Election) { el.Key() },
		"Description":     func(el Election) { el.Description() },
		"Target":          func(el Election) { el.Target() },
		"N":               func(el Election) { el.N() },
		"Steps":           func(el Election) { el.Steps() },
		"ParallelTime":    func(el Election) { el.ParallelTime() },
		"Leaders":         func(el Election) { el.Leaders() },
		"RunSteps":        func(el Election) { el.RunSteps(1) },
		"RunUntilLeaders": func(el Election) { el.RunUntilLeaders(1, 1) },
		"VerifyStable":    func(el Election) { el.VerifyStable(1) },
		"Census":          func(el Election) { el.Census() },
		"TopCensus":       func(el Election) { el.TopCensus(1) },
		"QuotedTopCensus": func(el Election) { el.QuotedTopCensus(1) },
		"LiveStates":      func(el Election) { el.LiveStates() },
		"LeaderID":        func(el Election) { el.LeaderID() },
		"HybridStats":     func(el Election) { el.HybridStats() },
		"Release":         func(el Election) { el.Release() },
	}
	for _, engine := range []pp.Engine{pp.EngineAgent, pp.EngineHybrid} {
		for name, call := range calls {
			el := mustNew(t, Spec{Protocol: "pll", N: 100, Engine: engine, Seed: 3})
			el.RunSteps(500)
			el.TopCensus(4)
			el.Release()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s after Release did not panic", engine, name)
					}
				}()
				call(el)
			}()
		}
	}
}

// TestSpilledRunPoolsNothing: a MaxID run past the spill point drops its
// table instead of handing it back, and the next run starts fresh.
func TestSpilledRunPoolsNothing(t *testing.T) {
	defer resetPool()
	resetPool()
	spec := Spec{Protocol: "maxid", N: 2000, Engine: pp.EngineAgent, Seed: 9}
	el := mustNew(t, spec)
	el.RunUntilLeaders(1, LogBudget(spec.N))
	if !el.(interface{ spilled() bool }).spilled() {
		t.Fatal("maxid n=2000 did not spill")
	}
	el.Release()
	if idle := idleTables(spec); idle != 0 {
		t.Fatalf("a spilled run left %d idle tables", idle)
	}

	spec.Protocol, spec.N = "pll", 100
	el = mustNew(t, spec)
	el.RunUntilLeaders(1, LogBudget(spec.N))
	el.Release()
	if idle := idleTables(spec); idle != 1 {
		t.Fatalf("a PLL run left %d idle tables, want 1", idle)
	}
}

// TestPoolBound: the pool keeps at most maxIdle idle tables over all
// specs, dropping the one idle longest.
func TestPoolBound(t *testing.T) {
	defer resetPool()
	resetPool()
	for n := 2; n < 2+maxIdle+3; n++ {
		el := mustNew(t, Spec{Protocol: "angluin", N: n, Engine: pp.EngineAgent, Seed: 1})
		el.RunSteps(10)
		el.Release()
	}
	if got := len(pool.idle); got != maxIdle {
		t.Fatalf("%d idle tables, want the bound %d", got, maxIdle)
	}
	for n := 2; n < 5; n++ {
		if idle := idleTables(Spec{Protocol: "angluin", N: n}); idle != 0 {
			t.Errorf("the table of n=%d, idle longest, was kept", n)
		}
	}
}
