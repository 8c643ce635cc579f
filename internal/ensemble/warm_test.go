package ensemble_test

import (
	"runtime"
	"testing"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

// TestWarmReplicateAllocs pins what one agent-engine replicate allocates
// once its spec's pool holds a warm table: registry.New, ensemble.Drive
// and Release build the election and the simulator and nothing else —
// no state table, no interning map, no transition memo, no agent array.
func TestWarmReplicateAllocs(t *testing.T) {
	const n, seeds = 64, 40
	entry, _ := registry.Lookup("pll")
	spec := registry.Spec{Protocol: "pll", N: n, Engine: pp.EngineAgent}
	budget := entry.StepBudget(n)
	replicate := func() {
		spec.Seed = spec.Seed%seeds + 1 // a cycle, so the warm table stops growing
		el, err := registry.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		ensemble.Drive(nil, el, entry.Target, budget, 0, nil)
		el.Release()
	}
	for i := 0; i < seeds; i++ {
		replicate()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(2*seeds, replicate)
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / (2*seeds + 1)
	// The election, the protocol value, the simulator and its random
	// source; the description is rendered only when asked for, so no fmt
	// call (whose printer pool the race detector thins out) runs here. A
	// table, map or memo made per run would add at least 4 KiB: n = 64
	// agents get a single-run memo of 256 cells of 16 bytes.
	if allocs > 4 || bytes > 1024 {
		t.Fatalf("warm replicate allocates %.0f objects, %d bytes; want at most 4 and 1 KiB", allocs, bytes)
	}
}
