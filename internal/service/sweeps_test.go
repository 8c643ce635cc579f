package service_test

import (
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"popproto/internal/registry"
	"popproto/internal/service"
	"popproto/internal/store"
)

// waitSweepDone fails the test if the sweep does not reach a terminal
// state in time.
func waitSweepDone(t *testing.T, s *service.Sweep) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("sweep %s still %s after 120s", s.ID, s.State())
	}
}

// waitCellExperiment polls until the experiment behind the sweep's cell
// i is indexed, returning it, or nil if the sweep finished first.
func waitCellExperiment(t *testing.T, m *service.Manager, sw *service.Sweep, i int) *service.Experiment {
	t.Helper()
	id := sw.Cells()[i].ExperimentID
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if e, ok := m.GetExperiment(id); ok {
			return e
		}
		select {
		case <-sw.Done():
			return nil
		case <-time.After(100 * time.Microsecond):
		}
	}
	t.Fatalf("cell %d's experiment %s not indexed after 30s", i, id)
	return nil
}

func TestSweepLifecycle(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 4})
	defer m.Close()

	sw, cached, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{500, 1000, 2000},
		Engine:     "count",
		Replicates: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first submission reported cached")
	}
	waitSweepDone(t, sw)
	if sw.State() != service.StateDone {
		t.Fatalf("state = %s (%s)", sw.State(), sw.View().Error)
	}

	cells := sw.Cells()
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	for _, c := range cells {
		if c.State != service.StateDone {
			t.Errorf("cell %d (n=%d) state = %s, want done", c.Index, c.N, c.State)
		}
		if c.Aggregates == nil || c.Aggregates.Replicates != 4 || c.Aggregates.Stabilized != 4 {
			t.Errorf("cell n=%d aggregates = %+v, want 4/4 stabilized", c.N, c.Aggregates)
		}
		if c.Source != "run" {
			t.Errorf("cell n=%d source = %q, want run (fresh manager, nothing cached)", c.N, c.Source)
		}
		if c.ExperimentID == "" || c.Seed == 0 {
			t.Errorf("cell n=%d missing experiment linkage: %+v", c.N, c)
		}
	}

	sum := sw.Summary()
	if sum == nil || len(sum.Fits) != 1 {
		t.Fatalf("summary = %+v, want one fit", sum)
	}
	fit := sum.Fits[0]
	if fit.Protocol != "pll" || fit.Points != 3 {
		t.Errorf("fit = %+v, want pll over 3 points", fit)
	}
	if fit.R2 < 0 || fit.R2 > 1 {
		t.Errorf("fit R² = %g outside [0, 1]", fit.R2)
	}

	// Lookup and identical resubmission land on the same sweep.
	if got, ok := m.GetSweep(sw.ID); !ok || got != sw {
		t.Error("GetSweep did not return the submitted sweep")
	}
	again, cached, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{2000, 1000, 500, 1000}, // canonicalization sorts and dedupes
		Engine:     "count",
		Replicates: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || again != sw {
		t.Error("identical (canonicalized) spec not served from cache")
	}

	if stats := m.Stats(); stats.Sweeps == 0 {
		t.Errorf("stats do not count the sweep: %+v", stats)
	}
}

// TestSweepCellSharesExperimentCache: a sweep cell's result is indexed
// as a finished experiment — so the standalone submission of the same
// spec is a cache hit with bit-identical aggregates — and conversely a
// finished experiment is reused by a later sweep without re-simulation.
func TestSweepCellSharesExperimentCache(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 4})
	defer m.Close()

	sw, _, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{800, 1600},
		Engine:     "count",
		Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw)
	if sw.State() != service.StateDone {
		t.Fatalf("sweep state = %s (%s)", sw.State(), sw.View().Error)
	}
	cell := sw.Cells()[0]

	// The cell must be fetchable as an experiment by its advertised id...
	exp, ok := m.GetExperiment(cell.ExperimentID)
	if !ok {
		t.Fatalf("cell experiment %s not indexed", cell.ExperimentID)
	}
	if !reflect.DeepEqual(exp.Aggregates(), cell.Aggregates) {
		t.Error("cell aggregates diverge from its indexed experiment")
	}
	// ...and the standalone submission is a cache hit, not a re-run.
	before := m.Stats()
	again, cached, err := m.SubmitExperiment(service.ExperimentSpec{
		Protocol: "pll", N: 800, Engine: "count", Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || again != exp {
		t.Error("standalone experiment of a sweep cell's spec was not a cache hit")
	}
	if after := m.Stats(); after.Hits != before.Hits+1 {
		t.Errorf("hits %d -> %d, want +1", before.Hits, after.Hits)
	}

	// Conversely: a second sweep whose grid overlaps reuses the finished
	// cells from the cache (source "cache") instead of re-running them.
	sw2, _, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{800, 1600, 3200},
		Engine:     "count",
		Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw2)
	cells2 := sw2.Cells()
	if cells2[0].Source != "cache" || cells2[1].Source != "cache" {
		t.Errorf("overlapping cells not served from cache: %q, %q", cells2[0].Source, cells2[1].Source)
	}
	if cells2[2].Source != "run" {
		t.Errorf("fresh cell source = %q, want run", cells2[2].Source)
	}
	if !reflect.DeepEqual(cells2[0].Aggregates, cell.Aggregates) {
		t.Error("cached cell aggregates diverge from the original run")
	}
}

// TestSweepCellInFlightIsExperiment: a cell the sweep is running is an
// ordinary in-flight experiment — fetchable by its advertised id, and a
// standalone submission of its spec joins it instead of simulating it a
// second time under the same id.
func TestSweepCellInFlightIsExperiment(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	defer m.Close()

	sw, _, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"angluin"},
		Ns:         []int{50_000}, // a few hundred ms: linear-time cells
		Engine:     "count",
		Replicates: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := waitCellExperiment(t, m, sw, 0)
	if exp == nil || exp.State().Terminal() {
		t.Fatal("the running cell's experiment was not fetchable while in flight")
	}

	before := m.Stats()
	again, cached, err := m.SubmitExperiment(service.ExperimentSpec{
		Protocol: "angluin", N: 50_000, Engine: "count", Replicates: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := m.Stats()
	if cached || again != exp {
		t.Errorf("standalone submission got %p (cached %v), want the in-flight cell experiment %p", again, cached, exp)
	}
	if after.Joined != before.Joined+1 || after.Misses != before.Misses {
		t.Errorf("joined %d -> %d, misses %d -> %d; want joined +1, misses unchanged",
			before.Joined, after.Joined, before.Misses, after.Misses)
	}

	waitSweepDone(t, sw)
	waitExpDone(t, again)
	cell := sw.Cells()[0]
	if sw.State() != service.StateDone || again.State() != service.StateDone {
		t.Fatalf("sweep %s, experiment %s; want both done", sw.State(), again.State())
	}
	if cell.Source != "run" {
		t.Errorf("cell source = %q, want run", cell.Source)
	}
	if cell.Aggregates == nil || !reflect.DeepEqual(*again.Aggregates(), *cell.Aggregates) {
		t.Errorf("cell and joined experiment aggregates diverge:\ncell %+v\nexp  %+v", cell.Aggregates, again.Aggregates())
	}
}

// TestSweepCellBitIdentical is the acceptance identity: a sweep cell ≡
// the equivalent standalone experiment (bit-identical aggregates, even
// across managers) ≡ — via a 1-replicate cell — the single job with the
// same seedless spec (replicate 0 discipline).
func TestSweepCellBitIdentical(t *testing.T) {
	// Manager A runs the sweep; manager B (fresh, nothing shared) runs
	// the standalone experiment and the job.
	a := service.NewManager(service.Options{Workers: 4})
	defer a.Close()
	b := service.NewManager(service.Options{Workers: 4})
	defer b.Close()

	sw, _, err := a.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{1200},
		Engine:     "count",
		Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw)
	cell := sw.Cells()[0]
	if cell.State != service.StateDone || cell.Aggregates == nil {
		t.Fatalf("cell did not finish: %+v", cell)
	}

	exp, _, err := b.SubmitExperiment(service.ExperimentSpec{
		Protocol: "pll", N: 1200, Engine: "count", Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitExpDone(t, exp)
	if !reflect.DeepEqual(exp.Aggregates(), cell.Aggregates) {
		t.Errorf("sweep cell and standalone experiment diverged:\ncell %+v\nexp  %+v",
			cell.Aggregates, exp.Aggregates())
	}
	if got := exp.View().Spec.Seed; got != cell.Seed {
		t.Errorf("derived seeds diverged: cell %d, experiment %d", cell.Seed, got)
	}

	// The 1-replicate cell collapses to the seedless job (replicate 0).
	one, _, err := a.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{1200},
		Engine:     "count",
		Replicates: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, one)
	oneCell := one.Cells()[0]

	job, _, err := b.Submit(service.JobSpec{Protocol: "pll", N: 1200, Engine: "count"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	res := job.Result()
	if oneCell.Aggregates.MeanSteps != float64(res.Steps) {
		t.Errorf("1-replicate cell ran %g steps, job ran %d — not bit-identical",
			oneCell.Aggregates.MeanSteps, res.Steps)
	}
	if oneCell.Aggregates.MeanParallelTime != res.ParallelTime {
		t.Errorf("cell parallel time %g, job %g", oneCell.Aggregates.MeanParallelTime, res.ParallelTime)
	}
	if oneCell.Seed != job.View().Spec.Seed {
		t.Errorf("cell seed %d, job seed %d", oneCell.Seed, job.View().Spec.Seed)
	}
}

// TestSweepCancellationCascade: canceling a sweep cancels its in-flight
// cell's experiment (which runs under the sweep's context) and marks the
// never-started cells canceled — the cross-kind cancellation acceptance
// path. The canceled cell experiment is not served to a later standalone
// submission, which simulates again.
func TestSweepCancellationCascade(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	defer m.Close()

	// Linear-time cells big enough to cancel mid-flight.
	sw, _, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"angluin"},
		Ns:         []int{100_000, 120_000},
		Engine:     "count",
		Replicates: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it get into the first cell, then cancel.
	cellExp := waitCellExperiment(t, m, sw, 0)
	if cellExp == nil {
		t.Fatal("sweep finished before its first cell was in flight")
	}
	if !m.CancelSweep(sw.ID) {
		t.Fatal("CancelSweep did not find the sweep")
	}
	waitSweepDone(t, sw)
	if sw.State() != service.StateCanceled {
		t.Fatalf("state = %s, want canceled", sw.State())
	}
	for _, c := range sw.Cells() {
		if !c.State.Terminal() {
			t.Errorf("cell n=%d left in state %s after sweep cancellation", c.N, c.State)
		}
		if c.State == service.StateDone && c.Aggregates == nil {
			t.Errorf("done cell n=%d has no aggregates", c.N)
		}
	}
	if got := cellExp.State(); got != service.StateCanceled {
		t.Errorf("in-flight cell experiment state = %s, want canceled", got)
	}
	exp, cached, err := m.SubmitExperiment(service.ExperimentSpec{
		Protocol: "angluin", N: 100_000, Engine: "count", Replicates: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached || exp == cellExp {
		t.Error("canceled cell experiment served to a standalone submission")
	}
	m.CancelExperiment(exp.ID)
	waitExpDone(t, exp)

	// Cancellation is not the spec's deterministic outcome: resubmission
	// re-runs rather than serving the canceled sweep.
	again, cached, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"angluin"},
		Ns:         []int{100_000, 120_000},
		Engine:     "count",
		Replicates: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached || again == sw {
		t.Error("canceled sweep served from cache")
	}
	m.CancelSweep(again.ID)
	waitSweepDone(t, again)
}

func TestSweepValidation(t *testing.T) {
	m := service.NewManager(service.Options{MaxReplicates: 100, MaxSweepCells: 4, MaxNAgent: 5000})
	defer m.Close()

	cases := []service.SweepSpec{
		{Ns: []int{100}, Replicates: 2},                                                         // no protocols
		{Protocols: []string{"pll"}, Replicates: 2},                                             // no ns
		{Protocols: []string{"pll"}, Ns: []int{100}},                                            // replicates missing
		{Protocols: []string{"nope"}, Ns: []int{100}, Replicates: 2},                            // unknown protocol
		{Protocols: []string{"pll"}, Ns: []int{1}, Replicates: 2},                               // n too small
		{Protocols: []string{"pll"}, Ns: []int{100}, Replicates: 101},                           // over MaxReplicates
		{Protocols: []string{"pll"}, Ns: []int{100}, Replicates: 2, Engine: "quantum"},          // bad engine
		{Protocols: []string{"pll"}, Ns: []int{100}, Replicates: 2, CI: 1.5},                    // ci out of range
		{Protocols: []string{"angluin"}, Ns: []int{100}, Ms: []int{3}, Replicates: 2},           // m on m-less protocol
		{Protocols: []string{"pll"}, Ns: []int{100, 200, 300, 400, 500}, Replicates: 2},         // over MaxSweepCells
		{Protocols: []string{"pll"}, Ns: []int{9000}, Replicates: 2, Engine: "agent"},           // over MaxNAgent
		{Protocols: []string{"pll"}, Ns: []int{100}, Replicates: 2, MaxParallelTime: -1},        // negative budget
		{Protocols: []string{"pll", "angluin"}, Ns: []int{100}, Ms: []int{0, 9}, Replicates: 2}, // m axis on m-less protocol
	}
	for _, spec := range cases {
		if _, _, err := m.SubmitSweep(spec); !errors.Is(err, registry.ErrBadSpec) {
			t.Errorf("SubmitSweep(%+v) error = %v, want ErrBadSpec", spec, err)
		}
	}
}

// TestSweepStoreRoundTrip: restore parity for all three kinds over one
// store — the sweep itself, its per-cell experiment records, and a job —
// all served back by a fresh manager without re-simulation.
func TestSweepStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	sweepSpec := service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{600, 1200},
		Engine:     "count",
		Replicates: 2,
	}
	jobSpec := service.JobSpec{Protocol: "pll", N: 600, Engine: "count", Seed: 99}

	m1 := service.NewManager(service.Options{Workers: 4, Store: st})
	sw, _, err := m1.SubmitSweep(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := m1.Submit(jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw)
	waitDone(t, job)
	if sw.State() != service.StateDone {
		t.Fatalf("sweep state = %s (%s)", sw.State(), sw.View().Error)
	}
	wantCells := sw.Cells()
	wantSummary := sw.Summary()
	wantSteps := job.Result().Steps
	sweepID := sw.ID
	m1.Close()
	st.Close()

	// "Restart": fresh store replay, fresh manager.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// 1 sweep + 2 cell experiments + 1 job.
	if st2.Len() != 4 {
		t.Fatalf("store replayed %d records, want 4", st2.Len())
	}
	m2 := service.NewManager(service.Options{Workers: 1, Store: st2})
	defer m2.Close()

	// The sweep restores by id and by spec, cells and summary intact.
	restored, ok := m2.GetSweep(sweepID)
	if !ok {
		t.Fatal("sweep not restorable by id")
	}
	if restored.State() != service.StateDone || !restored.View().Restored {
		t.Fatalf("restored sweep state = %s restored = %v", restored.State(), restored.View().Restored)
	}
	if !reflect.DeepEqual(restored.Cells(), wantCells) {
		t.Error("restored cells diverge from the originals")
	}
	if !reflect.DeepEqual(restored.Summary(), wantSummary) {
		t.Errorf("restored summary %+v != original %+v", restored.Summary(), wantSummary)
	}
	resub, cached, err := m2.SubmitSweep(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || resub != restored {
		t.Error("sweep resubmission not served from the restored record")
	}

	// Each cell restores as a standalone experiment from its own record.
	cellExp, cached, err := m2.SubmitExperiment(service.ExperimentSpec{
		Protocol: "pll", N: 1200, Engine: "count", Replicates: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("cell's experiment record not served from the store")
	}
	if !reflect.DeepEqual(cellExp.Aggregates(), wantCells[1].Aggregates) {
		t.Error("restored cell experiment aggregates diverged")
	}

	// And the job restores as before.
	jobRestored, cached, err := m2.Submit(jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || jobRestored.Result().Steps != wantSteps {
		t.Errorf("restored job: cached=%v steps=%d want %d", cached, jobRestored.Result().Steps, wantSteps)
	}

	if stats := m2.Stats(); stats.Misses != 0 {
		t.Errorf("restarted manager re-simulated: %d misses", stats.Misses)
	}
}

// TestSweepEngineAutoPerCell: with engine auto (the sweep default), each
// cell resolves independently — the per-agent engine below the
// registry's census threshold, the hybrid engine above it — and the
// resolved engine lands in the cell's canonical identity.
func TestSweepEngineAutoPerCell(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 4})
	defer m.Close()

	sw, _, err := m.SubmitSweep(service.SweepSpec{
		Protocols:  []string{"pll"},
		Ns:         []int{1000, 70_000}, // straddles the 2¹⁶ auto threshold
		Replicates: 2,                   // engine omitted = auto
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw)
	if sw.State() != service.StateDone {
		t.Fatalf("sweep state = %s (%s)", sw.State(), sw.View().Error)
	}
	cells := sw.Cells()
	if cells[0].Engine != "agent" {
		t.Errorf("n=1000 resolved to %q, want agent", cells[0].Engine)
	}
	if cells[1].Engine != "hybrid" {
		t.Errorf("n=70000 resolved to %q, want hybrid", cells[1].Engine)
	}
	if fits := sw.Summary().Fits; len(fits) != 1 || len(fits[0].Engines) != 2 {
		t.Errorf("summary fits = %+v, want one fit spanning two engines", fits)
	}

	// The auto cell dedupes against the explicit spelling: submitting the
	// concrete experiment is a cache hit on the cell's result.
	_, cached, err := m.SubmitExperiment(service.ExperimentSpec{
		Protocol: "pll", N: 1000, Engine: "agent", Replicates: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("explicit-engine experiment did not hit the auto cell's cache entry")
	}
}

// TestMixedLoadFairness floods the manager with jobs, experiments and
// sweeps at once through the shared scheduler and asserts everything
// completes, the accounting adds up, and no goroutines leak. Run under
// -race in CI.
func TestMixedLoadFairness(t *testing.T) {
	before := runtime.NumGoroutine()
	m := service.NewManager(service.Options{Workers: 3})

	const jobN = 24
	jobs := make([]*service.Job, jobN)
	var exps []*service.Experiment
	var sweeps []*service.Sweep
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < jobN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(service.JobSpec{Protocol: "pll", N: 400 + 10*(i%8), Seed: uint64(1 + i%8)})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			jobs[i] = j
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := m.SubmitExperiment(service.ExperimentSpec{
				Protocol: "pll", N: 500 + 100*i, Replicates: 4,
			})
			if err != nil {
				t.Errorf("SubmitExperiment: %v", err)
				return
			}
			mu.Lock()
			exps = append(exps, e)
			mu.Unlock()
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, _, err := m.SubmitSweep(service.SweepSpec{
				Protocols:  []string{"pll"},
				Ns:         []int{300 + 50*i, 600 + 50*i},
				Engine:     "count",
				Replicates: 2,
			})
			if err != nil {
				t.Errorf("SubmitSweep: %v", err)
				return
			}
			mu.Lock()
			sweeps = append(sweeps, s)
			mu.Unlock()
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
	for _, e := range exps {
		waitExpDone(t, e)
		if e.State() != service.StateDone {
			t.Errorf("experiment %s state = %s", e.ID, e.State())
		}
	}
	for _, s := range sweeps {
		waitSweepDone(t, s)
		if s.State() != service.StateDone {
			t.Errorf("sweep %s state = %s (%s)", s.ID, s.State(), s.View().Error)
		}
	}
	m.Close()

	// The shared pool must wind down completely: no leaked goroutines.
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
