package service_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"popproto/internal/registry"
	"popproto/internal/service"
)

// waitDone fails the test if the job does not reach a terminal state in
// time.
func waitDone(t *testing.T, j *service.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s still %s after 60s", j.ID, j.State())
	}
}

func TestJobLifecycle(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	defer m.Close()

	job, cached, err := m.Submit(service.JobSpec{Protocol: "pll", N: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first submission reported cached")
	}
	waitDone(t, job)

	if job.State() != service.StateDone {
		t.Fatalf("state = %s, want done", job.State())
	}
	res := job.Result()
	if res == nil {
		t.Fatal("done job has no result")
	}
	if !res.Stabilized || res.Leaders != 1 {
		t.Errorf("stabilized=%v leaders=%d, want stabilized with exactly 1 leader",
			res.Stabilized, res.Leaders)
	}
	if res.Steps == 0 || res.ParallelTime <= 0 {
		t.Errorf("implausible timing: steps=%d parallelTime=%g", res.Steps, res.ParallelTime)
	}
	if res.Description == "" {
		t.Error("empty description")
	}
	view := job.View()
	if view.Snapshots < 2 {
		t.Errorf("trajectory has %d snapshots, want >= 2", view.Snapshots)
	}
	if view.Started == nil || view.Finished == nil {
		t.Error("missing started/finished timestamps on a done job")
	}

	// A lookup by id must return the same job.
	got, ok := m.Get(job.ID)
	if !ok || got != job {
		t.Error("Get(id) did not return the submitted job")
	}
}

func TestCacheHitOnIdenticalSpec(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	defer m.Close()

	spec := service.JobSpec{Protocol: "angluin", N: 500, Seed: 3}
	first, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	second, cached, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("identical finished spec not served from cache")
	}
	if second != first {
		t.Error("cache returned a different job")
	}
	stats := m.Stats()
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 miss", stats)
	}

	// A different seed is a different spec: no cache hit.
	other := spec
	other.Seed = 4
	third, cached, err := m.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if cached || third == first {
		t.Error("distinct spec incorrectly shared the cached job")
	}
	waitDone(t, third)
}

// TestSeedDerivationIsDeterministic: omitting the seed must still produce
// a cacheable, reproducible job.
func TestSeedDerivationIsDeterministic(t *testing.T) {
	m := service.NewManager(service.Options{})
	defer m.Close()

	spec := service.JobSpec{Protocol: "lottery", N: 300}
	a, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, cached, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("two seedless submissions of one spec created two jobs")
	}
	_ = cached // may be cached or joined depending on timing; same job either way
	if a.View().Spec.Seed == 0 {
		t.Error("canonical spec still has seed 0")
	}
}

func TestDeterministicAcrossManagers(t *testing.T) {
	spec := service.JobSpec{Protocol: "pll", N: 1000, Seed: 11, Verify: 5000}
	run := func() *service.Result {
		m := service.NewManager(service.Options{Workers: 1})
		defer m.Close()
		j, _, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != service.StateDone {
			t.Fatalf("state = %s", j.State())
		}
		return j.Result()
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.Leaders != b.Leaders || a.LiveStates != b.LiveStates {
		t.Errorf("identical specs diverged: %+v vs %+v", a, b)
	}
	if a.Stable == nil || !*a.Stable {
		t.Errorf("verification did not report stability: %+v", a.Stable)
	}
	if fmt.Sprint(a.Census) != fmt.Sprint(b.Census) {
		t.Errorf("censuses diverged:\n%v\n%v", a.Census, b.Census)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := service.NewManager(service.Options{MaxN: 10_000, MaxNAgent: 5_000})
	defer m.Close()

	cases := []service.JobSpec{
		{Protocol: "nope", N: 100},
		{Protocol: "pll", N: 1},
		{Protocol: "pll", N: 20_000},                   // over MaxN
		{Protocol: "pll", N: 100, Engine: "quantum"},   // bad engine
		{Protocol: "angluin", N: 100, M: 9},            // m on an m-less protocol
		{Protocol: "pll", N: 5000, M: 2},               // m < lg n
		{Protocol: "pll", N: 100, MaxParallelTime: -1}, // negative budget
		{Protocol: "pll", N: 9_000, Engine: "agent"},   // over MaxNAgent (below)
	}
	for _, spec := range cases {
		if _, _, err := m.Submit(spec); !errors.Is(err, registry.ErrBadSpec) {
			t.Errorf("Submit(%+v) error = %v, want ErrBadSpec", spec, err)
		}
	}
}

func TestCancel(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	defer m.Close()

	// A linear-time protocol on a large population: long enough to cancel.
	job, _, err := m.Submit(service.JobSpec{Protocol: "angluin", N: 100_000, Engine: "agent"})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(job.ID) {
		t.Fatal("Cancel did not find the job")
	}
	waitDone(t, job)
	if job.State() != service.StateCanceled {
		t.Fatalf("state = %s, want canceled", job.State())
	}

	// Cancellation is not a deterministic outcome: resubmission re-runs.
	again, cached, err := m.Submit(service.JobSpec{Protocol: "angluin", N: 100_000, Engine: "agent"})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("canceled job served from cache")
	}
	if again == job {
		t.Error("resubmission returned the canceled job")
	}
	m.Cancel(again.ID)
	waitDone(t, again)
}

func TestQueueFullAndClosed(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1, QueueSize: 1})

	// Occupy the single worker and the single queue slot with slow jobs.
	slow := func(seed uint64) *service.Job {
		j, _, err := m.Submit(service.JobSpec{
			Protocol: "angluin", N: 200_000, Engine: "agent", Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j1 := slow(1)
	// Wait for the worker to dequeue j1 so the next submission occupies
	// the queue slot rather than racing for it.
	for j1.State() == service.StateQueued {
		time.Sleep(time.Millisecond)
	}
	j2 := slow(2)
	if _, _, err := m.Submit(service.JobSpec{
		Protocol: "angluin", N: 200_000, Engine: "agent", Seed: 3,
	}); !errors.Is(err, service.ErrBusy) {
		t.Errorf("overflow submission error = %v, want ErrBusy", err)
	}

	m.Cancel(j1.ID)
	m.Cancel(j2.ID)
	m.Close()
	if _, _, err := m.Submit(service.JobSpec{Protocol: "pll", N: 100}); !errors.Is(err, service.ErrClosed) {
		t.Errorf("post-Close submission error = %v, want ErrClosed", err)
	}
}

// TestConcurrentLoad fires 100 concurrent submissions of 10 distinct specs
// through a small pool and asserts the dedup/cache accounting, per-spec
// determinism, and that no goroutines leak. Run under -race in CI.
func TestConcurrentLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	m := service.NewManager(service.Options{Workers: 3})

	const distinct = 10
	const submissions = 100
	jobs := make([]*service.Job, submissions)
	var wg sync.WaitGroup
	wg.Add(submissions)
	for i := 0; i < submissions; i++ {
		go func(i int) {
			defer wg.Done()
			spec := service.JobSpec{
				Protocol: "pll",
				N:        400 + 10*(i%distinct), // 10 distinct specs
				Seed:     uint64(1 + i%distinct),
			}
			j, _, err := m.Submit(spec)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()

	for _, j := range jobs {
		if j == nil {
			t.Fatal("missing job")
		}
		waitDone(t, j)
		if j.State() != service.StateDone {
			t.Errorf("job %s state = %s", j.ID, j.State())
		}
	}

	// All submissions of one spec must have landed on the same job.
	byID := make(map[string]*service.Job)
	for _, j := range jobs {
		if prev, ok := byID[j.ID]; ok && prev != j {
			t.Errorf("two jobs share id %s", j.ID)
		}
		byID[j.ID] = j
	}
	if len(byID) != distinct {
		t.Errorf("%d distinct jobs, want %d", len(byID), distinct)
	}
	stats := m.Stats()
	if stats.Misses != distinct {
		t.Errorf("misses = %d, want %d", stats.Misses, distinct)
	}
	if stats.Hits+stats.Joined != submissions-distinct {
		t.Errorf("hits+joined = %d, want %d", stats.Hits+stats.Joined, submissions-distinct)
	}

	// Identical specs must also reproduce identical results when re-run
	// from scratch rather than served from cache.
	check, _, err := m.Submit(service.JobSpec{Protocol: "pll", N: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2 := service.NewManager(service.Options{Workers: 1})
	fresh, _, err := m2.Submit(service.JobSpec{Protocol: "pll", N: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, check)
	waitDone(t, fresh)
	if check.Result().Steps != fresh.Result().Steps {
		t.Errorf("cached and fresh runs diverged: %d vs %d steps",
			check.Result().Steps, fresh.Result().Steps)
	}
	m2.Close()
	m.Close()

	// The pools must wind down completely: no leaked goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after Close",
				before, runtime.NumGoroutine())
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubscribeCancelDuringRun: canceling a subscription while the worker
// is fanning out snapshots must not panic the worker (the channel is
// closed only by job completion, never by cancel) and must stop delivery.
func TestSubscribeCancelDuringRun(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	defer m.Close()

	job, _, err := m.Submit(service.JobSpec{Protocol: "angluin", N: 50_000, Engine: "agent"})
	if err != nil {
		t.Fatal(err)
	}
	// Churn subscriptions while the job runs: each reads one snapshot and
	// cancels, racing the worker's fanout sends.
	for i := 0; i < 50; i++ {
		_, live, cancel := job.Subscribe()
		select {
		case <-live:
		case <-job.Done():
		case <-time.After(time.Second):
		}
		cancel()
		cancel() // safe to call twice
	}
	// The election itself is Θ(n²) interactions — don't wait it out; the
	// assertion is that the fanout survived the churn without panicking.
	m.Cancel(job.ID)
	waitDone(t, job)
	if s := job.State(); s != service.StateCanceled && s != service.StateDone {
		t.Fatalf("state = %s, want canceled or done", s)
	}
}

// TestBudgetOverrideIsClamped: a huge maxParallelTime must not produce an
// unbounded run; the registry default remains the ceiling.
func TestBudgetOverrideIsClamped(t *testing.T) {
	m := service.NewManager(service.Options{})
	defer m.Close()
	job, _, err := m.Submit(service.JobSpec{
		Protocol: "pll", N: 100, Seed: 1, MaxParallelTime: 1e18,
	})
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := m.Submit(service.JobSpec{
		Protocol: "pll", N: 100, Seed: 1, MaxParallelTime: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	waitDone(t, small)
	// Default budget for pll at n=100: LogBudget(100) = 4000·100·8.
	if got, want := job.View().BudgetSteps, uint64(4000*100*8); got != want {
		t.Errorf("budget = %d, want clamped default %d", got, want)
	}
	if got, want := small.View().BudgetSteps, uint64(50); got != want {
		t.Errorf("budget = %d, want shortened %d", got, want)
	}
	if res := small.Result(); res == nil || res.Stabilized {
		t.Errorf("a 0.5-parallel-time budget should not elect: %+v", res)
	}
}

func TestSubscribe(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	defer m.Close()

	job, _, err := m.Submit(service.JobSpec{Protocol: "pll", N: 5000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	replay, live, cancel := job.Subscribe()
	defer cancel()
	seen := len(replay)
	for range live {
		seen++
	}
	waitDone(t, job)
	if seen < 2 {
		t.Errorf("streamed %d snapshots, want >= 2", seen)
	}

	// Subscribing to a finished job replays the stored trajectory over a
	// closed channel.
	replay, live, cancel = job.Subscribe()
	defer cancel()
	if len(replay) < 2 {
		t.Errorf("finished-job replay has %d snapshots, want >= 2", len(replay))
	}
	if _, open := <-live; open {
		t.Error("finished job's live channel not closed")
	}
	var last service.Snapshot
	if err := json.Unmarshal(replay[len(replay)-1].AppendJSON(nil), &last); err != nil {
		t.Fatal(err)
	}
	if last.Leaders != 1 {
		t.Errorf("final snapshot has %d leaders, want 1", last.Leaders)
	}
	total := 0
	for _, c := range last.Census {
		total += c
	}
	if total+last.OmittedAgents != 5000 {
		t.Errorf("final census covers %d agents (+%d omitted), want 5000",
			total, last.OmittedAgents)
	}
}

// TestBatchEngineJob runs a full election job on the batch engine and
// checks the result and trajectory match the other engines' shape: exactly
// one leader, at least two snapshots, a coherent census.
func TestBatchEngineJob(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	defer m.Close()

	job, _, err := m.Submit(service.JobSpec{Protocol: "pll", N: 50_000, Engine: "batch", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	res := job.Result()
	if res == nil || !res.Stabilized || res.Leaders != 1 {
		t.Fatalf("batch job result: %+v", res)
	}
	total := 0
	for _, c := range res.Census {
		total += c
	}
	if total+res.OmittedAgents != 50_000 {
		t.Fatalf("census covers %d agents (+%d omitted), want 50000", total, res.OmittedAgents)
	}
	if job.View().Snapshots < 2 {
		t.Fatalf("batch job trajectory has %d snapshots, want >= 2", job.View().Snapshots)
	}
}

// TestPerEngineLimits: every engine enforces its own population cap, and
// the error names the engine.
func TestPerEngineLimits(t *testing.T) {
	m := service.NewManager(service.Options{
		Workers: 1, MaxN: 1000, MaxNAgent: 500, MaxNBatch: 700,
	})
	defer m.Close()

	cases := []struct {
		engine string
		okN    int
		badN   int
	}{
		{"agent", 500, 501},
		{"batch", 700, 701},
		{"hybrid", 700, 701},
		{"count", 1000, 1001},
	}
	for _, tc := range cases {
		if _, _, _, _, err := m.Canonicalize(service.JobSpec{
			Protocol: "angluin", N: tc.okN, Engine: tc.engine,
		}); err != nil {
			t.Errorf("%s at its limit %d rejected: %v", tc.engine, tc.okN, err)
		}
		_, _, _, _, err := m.Canonicalize(service.JobSpec{
			Protocol: "angluin", N: tc.badN, Engine: tc.engine,
		})
		if !errors.Is(err, registry.ErrBadSpec) {
			t.Errorf("%s beyond its limit %d accepted (err=%v)", tc.engine, tc.badN, err)
		}
	}

	// MaxNBatch defaults to MaxN when MaxN is set explicitly.
	m2 := service.NewManager(service.Options{Workers: 1, MaxN: 1234})
	defer m2.Close()
	if _, _, _, _, err := m2.Canonicalize(service.JobSpec{
		Protocol: "angluin", N: 1234, Engine: "batch",
	}); err != nil {
		t.Errorf("batch limit did not default to MaxN: %v", err)
	}
	if _, _, _, _, err := m2.Canonicalize(service.JobSpec{
		Protocol: "angluin", N: 1235, Engine: "batch",
	}); !errors.Is(err, registry.ErrBadSpec) {
		t.Errorf("batch beyond explicit MaxN accepted (err=%v)", err)
	}

	// With no explicit caps at all, the census-scale engines accept a
	// billion-agent population (the benchmarked n=10⁹ PLL election) while
	// the count engine keeps its own, lower default.
	m3 := service.NewManager(service.Options{Workers: 1})
	defer m3.Close()
	if _, _, _, _, err := m3.Canonicalize(service.JobSpec{
		Protocol: "pll", N: 1_000_000_000, Engine: "hybrid",
	}); err != nil {
		t.Errorf("hybrid rejected n=1e9 under default limits: %v", err)
	}
	if _, _, _, _, err := m3.Canonicalize(service.JobSpec{
		Protocol: "pll", N: 1_000_000_000, Engine: "count",
	}); !errors.Is(err, registry.ErrBadSpec) {
		t.Errorf("count accepted n=1e9 beyond its default limit (err=%v)", err)
	}
}
