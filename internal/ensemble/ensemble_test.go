package ensemble_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

func pllSpec(n, reps int, seed uint64) ensemble.Spec {
	return ensemble.Spec{
		Registry:   registry.Spec{Protocol: "pll", N: n, Engine: pp.EngineCount, Seed: seed},
		Replicates: reps,
	}
}

func mustRun(t *testing.T, spec ensemble.Spec, opts ensemble.Options) ensemble.Result {
	t.Helper()
	res, err := ensemble.Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("Run(%+v): %v", spec, err)
	}
	return res
}

func TestSeedDerivation(t *testing.T) {
	base := ensemble.DeriveSeed("pll", 1000, "count", 0)
	if base == 0 {
		t.Fatal("derived base seed is 0")
	}
	if again := ensemble.DeriveSeed("pll", 1000, "count", 0); again != base {
		t.Errorf("derivation not stable: %d vs %d", base, again)
	}
	if other := ensemble.DeriveSeed("pll", 1001, "count", 0); other == base {
		t.Error("distinct specs derived the same seed")
	}
	// Replicate 0 IS the single run: its seed is the base seed itself.
	if got := ensemble.ReplicateSeed(base, 0); got != base {
		t.Errorf("ReplicateSeed(base, 0) = %d, want base %d", got, base)
	}
	seen := map[uint64]bool{base: true}
	for rep := 1; rep < 1000; rep++ {
		s := ensemble.ReplicateSeed(base, rep)
		if seen[s] {
			t.Fatalf("replicate seed collision at rep %d", rep)
		}
		seen[s] = true
	}
}

// TestAggregatesSane checks the statistical surface of a small PLL
// ensemble: counts, ordering of quantiles, CI bracketing the mean, a
// monotone survival curve.
func TestAggregatesSane(t *testing.T) {
	res := mustRun(t, pllSpec(2000, 24, 7), ensemble.Options{Workers: 4})
	agg := res.Aggregates
	if agg.Replicates != 24 || agg.Requested != 24 {
		t.Fatalf("replicates = %d/%d, want 24/24", agg.Replicates, agg.Requested)
	}
	if agg.Stabilized != 24 {
		t.Errorf("stabilized = %d, want 24 (PLL elects with probability 1)", agg.Stabilized)
	}
	if agg.MeanParallelTime <= 0 || agg.MeanSteps <= 0 {
		t.Errorf("nonpositive means: %+v", agg)
	}
	if !(agg.CILo <= agg.MeanParallelTime && agg.MeanParallelTime <= agg.CIHi) {
		t.Errorf("CI [%g, %g] does not bracket mean %g", agg.CILo, agg.CIHi, agg.MeanParallelTime)
	}
	if !(agg.MinParallelTime <= agg.P50 && agg.P50 <= agg.P90 &&
		agg.P90 <= agg.P99 && agg.P99 <= agg.MaxParallelTime) {
		t.Errorf("quantiles out of order: %+v", agg)
	}
	if agg.StabilizedLo > float64(agg.Stabilized)/float64(agg.Replicates) ||
		agg.StabilizedHi < float64(agg.Stabilized)/float64(agg.Replicates) {
		t.Errorf("Wilson CI [%g, %g] does not bracket the proportion", agg.StabilizedLo, agg.StabilizedHi)
	}
	if len(agg.Survival) == 0 {
		t.Fatal("no survival curve")
	}
	for i := 1; i < len(agg.Survival); i++ {
		if agg.Survival[i].T < agg.Survival[i-1].T || agg.Survival[i].Frac > agg.Survival[i-1].Frac {
			t.Errorf("survival curve not monotone at %d: %+v", i, agg.Survival)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the core executor contract:
// the same spec yields bit-identical aggregates no matter how many
// workers race the replicates, because incorporation is in replicate
// order.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := pllSpec(2000, 24, 5)
	want := mustRun(t, spec, ensemble.Options{Workers: 1}).Aggregates
	for _, workers := range []int{2, 4, 8} {
		got := mustRun(t, spec, ensemble.Options{Workers: workers}).Aggregates
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestDeterministicEarlyStopAcrossWorkerCounts: the early-stopping
// decision depends only on the in-order prefix, so it too is identical
// across worker counts.
func TestDeterministicEarlyStopAcrossWorkerCounts(t *testing.T) {
	spec := pllSpec(2000, 64, 5)
	spec.CITarget = 0.25
	spec.MinReplicates = 8
	want := mustRun(t, spec, ensemble.Options{Workers: 1}).Aggregates
	for _, workers := range []int{3, 8} {
		got := mustRun(t, spec, ensemble.Options{Workers: workers}).Aggregates
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestEngineChoice runs the same ensemble on every engine; all must
// finish with every replicate stabilized (the distributions agree by the
// engine-equivalence suites; here we only exercise the executor paths).
func TestEngineChoice(t *testing.T) {
	for _, engine := range pp.Engines() {
		spec := ensemble.Spec{
			Registry:   registry.Spec{Protocol: "angluin", N: 300, Engine: engine, Seed: 3},
			Replicates: 8,
		}
		res := mustRun(t, spec, ensemble.Options{Workers: 4})
		if res.Aggregates.Stabilized != 8 {
			t.Errorf("engine %v: stabilized %d/8", engine, res.Aggregates.Stabilized)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	spec := pllSpec(1000, 64, 9)
	spec.CITarget = 0.9 // loose enough to trigger at the floor
	spec.MinReplicates = 8
	var updates atomic.Int64
	res := mustRun(t, spec, ensemble.Options{
		Workers:  4,
		OnUpdate: func(ensemble.Aggregates) { updates.Add(1) },
	})
	agg := res.Aggregates
	if !agg.EarlyStopped {
		t.Fatalf("CI target 0.9 did not stop early: %+v", agg)
	}
	if agg.Replicates < 8 || agg.Replicates >= 64 {
		t.Errorf("early stop incorporated %d replicates, want in [8, 64)", agg.Replicates)
	}
	if agg.RelHalfWidth > 0.9 {
		t.Errorf("stopped with relHalfWidth %g > target", agg.RelHalfWidth)
	}
	if int(updates.Load()) != agg.Replicates {
		t.Errorf("%d OnUpdate calls for %d incorporated replicates", updates.Load(), agg.Replicates)
	}
}

// TestDispatchOrderSeedsAndErrors: Dispatch runs every replicate of its
// range with its ReplicateSeed, hands results over in replicate order
// however completions interleave, and returns the first non-cancellation
// run error.
func TestDispatchOrderSeedsAndErrors(t *testing.T) {
	run := func(_ context.Context, rep int, seed uint64) (uint64, error) {
		time.Sleep(time.Duration((rep*7)%5) * time.Millisecond) // scramble completions
		return seed, nil
	}
	var got []uint64
	err := ensemble.Dispatch(context.Background(), 99, 3, 40, 4, run, func(seed uint64) bool {
		got = append(got, seed)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 37 {
		t.Fatalf("incorporated %d replicates, want 37", len(got))
	}
	for i, seed := range got {
		if want := ensemble.ReplicateSeed(99, 3+i); seed != want {
			t.Fatalf("position %d: seed %d, want replicate %d's %d", i, seed, 3+i, want)
		}
	}

	boom := errors.New("boom")
	err = ensemble.Dispatch(context.Background(), 99, 0, 40, 4,
		func(ctx context.Context, rep int, seed uint64) (uint64, error) {
			if rep == 10 {
				return 0, boom
			}
			return run(ctx, rep, seed)
		}, func(uint64) bool { return false })
	if !errors.Is(err, boom) {
		t.Fatalf("Dispatch error = %v, want the run error", err)
	}
}

// TestReplicateOrderAndSeeds: OnReplicate must observe replicates in
// index order with the documented seeds.
func TestReplicateOrderAndSeeds(t *testing.T) {
	spec := pllSpec(500, 16, 11)
	var reps []ensemble.Replicate
	mustRun(t, spec, ensemble.Options{
		Workers:     8,
		OnReplicate: func(r ensemble.Replicate) { reps = append(reps, r) },
	})
	if len(reps) != 16 {
		t.Fatalf("observed %d replicates, want 16", len(reps))
	}
	for i, r := range reps {
		if r.Rep != i {
			t.Fatalf("replicate %d delivered out of order (index %d)", r.Rep, i)
		}
		if want := ensemble.ReplicateSeed(11, i); r.Seed != want {
			t.Errorf("replicate %d ran with seed %d, want %d", i, r.Seed, want)
		}
	}
}

// TestValidation: bad specs come back as registry.ErrBadSpec wraps.
func TestValidation(t *testing.T) {
	cases := []ensemble.Spec{
		{Registry: registry.Spec{Protocol: "pll", N: 1000}, Replicates: 0},
		{Registry: registry.Spec{Protocol: "nope", N: 1000}, Replicates: 4},
		{Registry: registry.Spec{Protocol: "pll", N: 1}, Replicates: 4},
		{Registry: registry.Spec{Protocol: "pll", N: 1000}, Replicates: 4, CITarget: -0.5},
		{Registry: registry.Spec{Protocol: "maxid", N: 64, M: 5}, Replicates: 4},
	}
	for _, spec := range cases {
		if _, err := ensemble.Run(context.Background(), spec, ensemble.Options{}); !errors.Is(err, registry.ErrBadSpec) {
			t.Errorf("Run(%+v) error = %v, want ErrBadSpec", spec, err)
		}
	}
}

// TestCancellationUnderLoad fires a 120-replicate ensemble, cancels it
// mid-flight, and checks that Run returns promptly with a partial,
// consistent result and that no goroutines leak. Run under -race in CI.
func TestCancellationUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	spec := ensemble.Spec{
		// Linear-time protocol: slow enough at this n to cancel mid-flight.
		Registry:   registry.Spec{Protocol: "angluin", N: 20_000, Engine: pp.EngineCount, Seed: 2},
		Replicates: 120,
	}
	done := make(chan struct{})
	var res ensemble.Result
	var err error
	go func() {
		defer close(done)
		res, err = ensemble.Run(ctx, spec, ensemble.Options{
			Workers: 8,
			OnUpdate: func(ensemble.Aggregates) {
				if seen.Add(1) == 5 {
					cancel() // cancel once a few replicates are in
				}
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("canceled ensemble did not return within 60s")
	}
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Aggregates.Replicates >= 120 {
		t.Errorf("canceled ensemble incorporated all %d replicates", res.Aggregates.Replicates)
	}
	if res.Aggregates.Replicates > 0 && res.Aggregates.MeanParallelTime <= 0 {
		t.Errorf("partial aggregates inconsistent: %+v", res.Aggregates)
	}

	// All workers must wind down: no leaked goroutines.
	deadline := time.Now().Add(20 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLoadCompletes runs a 150-replicate ensemble to completion over a
// small pool — the satellite load test (run under -race in CI) — and
// checks the executor accounted for every replicate exactly once.
func TestLoadCompletes(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := pllSpec(500, 150, 13)
	var count atomic.Int64
	res := mustRun(t, spec, ensemble.Options{
		Workers:     6,
		OnReplicate: func(ensemble.Replicate) { count.Add(1) },
	})
	if res.Aggregates.Replicates != 150 || count.Load() != 150 {
		t.Errorf("incorporated %d replicates (%d observed), want 150",
			res.Aggregates.Replicates, count.Load())
	}
	deadline := time.Now().Add(20 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDriveMatchesUnchunkedOutcome: Drive must reach the same terminal
// verdict as the runner's own RunUntilLeaders (the step counts differ
// only through rng consumption at chunk boundaries, which is the point
// of sharing Drive — but both must elect exactly one leader).
func TestDriveMatchesUnchunkedOutcome(t *testing.T) {
	el, err := registry.New(registry.Spec{Protocol: "pll", N: 1000, Engine: pp.EngineCount, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := registry.Lookup("pll")
	canceled := ensemble.Drive(context.Background(), el, entry.Target, entry.StepBudget(1000), 0, nil)
	if canceled {
		t.Fatal("uncanceled Drive reported canceled")
	}
	if el.Leaders() != 1 {
		t.Fatalf("Drive ended with %d leaders", el.Leaders())
	}

	// Determinism of the drive schedule itself: same spec, same steps.
	el2, _ := registry.New(registry.Spec{Protocol: "pll", N: 1000, Engine: pp.EngineCount, Seed: 21})
	ensemble.Drive(context.Background(), el2, entry.Target, entry.StepBudget(1000), 0, nil)
	if el.Steps() != el2.Steps() {
		t.Errorf("two identical drives diverged: %d vs %d steps", el.Steps(), el2.Steps())
	}
}
