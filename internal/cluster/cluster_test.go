package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"popproto/internal/cluster"
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

// localRunner is the LocalRunner the service plugs in: the ensemble
// package's pipelined block executor.
func localRunner(workers int) cluster.LocalRunner {
	return func(ctx context.Context, spec ensemble.Spec, ranges []ensemble.Range, onRange func(*ensemble.Partial) bool) error {
		return ensemble.RunRanges(ctx, spec, ranges, workers, onRange)
	}
}

// rangePartial runs one range of spec as a one-range block, the way a
// worker runs its lease.
func rangePartial(t *testing.T, spec ensemble.Spec, rg ensemble.Range) *ensemble.Partial {
	t.Helper()
	var p *ensemble.Partial
	err := ensemble.RunRanges(context.Background(), spec, []ensemble.Range{rg}, 2, func(done *ensemble.Partial) bool {
		p = done
		return false
	})
	if err != nil {
		t.Fatalf("RunRanges[%d,%d): %v", rg.Lo, rg.Hi, err)
	}
	return p
}

// noLocal fails the test if the coordinator falls back to local
// execution — used where remote workers must carry the whole run.
func noLocal(t *testing.T) cluster.LocalRunner {
	return func(ctx context.Context, spec ensemble.Spec, ranges []ensemble.Range, onRange func(*ensemble.Partial) bool) error {
		t.Errorf("coordinator executed %d ranges locally; expected remote workers to take them", len(ranges))
		return ensemble.RunRanges(ctx, spec, ranges, 0, onRange)
	}
}

// baseline runs the spec through the plain single-node executor.
func baseline(t *testing.T, spec ensemble.Spec) ensemble.Aggregates {
	t.Helper()
	res, err := ensemble.Run(context.Background(), spec, ensemble.Options{Workers: 4})
	if err != nil {
		t.Fatalf("baseline Run: %v", err)
	}
	return res.Aggregates
}

// startWorkers boots n in-process workers against url and returns a
// stop function that cancels them and waits for exit.
func startWorkers(t *testing.T, url string, n int, poll time.Duration, onLease func(cluster.Lease)) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &cluster.Worker{
			Coordinator: url,
			ID:          "w" + string(rune('a'+i)),
			Workers:     2,
			Poll:        poll,
			OnLease:     onLease,
			Logf:        t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func waitLive(t *testing.T, c *cluster.Coordinator, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers became live", c.LiveWorkers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLocalDegenerateMatchesEnsembleRun pins the degenerate case: a
// coordinator with no workers routes everything through the local
// runner and reproduces ensemble.Run bit-for-bit, early stopping
// included.
func TestLocalDegenerateMatchesEnsembleRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec ensemble.Spec
	}{
		{"plain", pllSpec(500, 40, 7)},
		{"early-stop", func() ensemble.Spec {
			s := pllSpec(1000, 64, 9)
			s.CITarget = 0.9
			s.MinReplicates = 8
			return s
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := baseline(t, tc.spec)
			c := cluster.NewCoordinator(cluster.Options{})
			defer c.Close()
			got, dist, err := c.Run(context.Background(), tc.spec, localRunner(4), nil)
			if err != nil {
				t.Fatalf("coordinator Run: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("local coordinator run differs from ensemble.Run:\n got %+v\nwant %+v", got, want)
			}
			if dist.Mode != "local" || dist.RemoteRanges != 0 || dist.LocalRanges != dist.Completed {
				t.Fatalf("unexpected distribution %+v", dist)
			}
		})
	}
}

// TestDistributedMatchesLocal is the acceptance criterion: a run
// sharded across two HTTP workers produces aggregates bit-identical to
// the single-node run.
func TestDistributedMatchesLocal(t *testing.T) {
	spec := pllSpec(500, 48, 5)
	want := baseline(t, spec)

	c := cluster.NewCoordinator(cluster.Options{Tick: 20 * time.Millisecond})
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := startWorkers(t, srv.URL, 2, 10*time.Millisecond, nil)
	defer stop()
	waitLive(t, c, 2)

	got, dist, err := c.Run(context.Background(), spec, noLocal(t), nil)
	if err != nil {
		t.Fatalf("distributed Run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed aggregates differ from local:\n got %+v\nwant %+v", got, want)
	}
	ranges := len(ensemble.PlanRanges(spec.Replicates))
	if dist.Mode != "cluster" || dist.RemoteRanges != ranges || dist.Completed != ranges {
		t.Fatalf("unexpected distribution %+v (want %d remote ranges)", dist, ranges)
	}
	if dist.Workers < 1 || dist.Workers > 2 {
		t.Fatalf("distribution names %d workers", dist.Workers)
	}
}

// TestWorkerFailureRetries kills a worker mid-lease and asserts the
// lease expires, the range is reissued to the surviving workers, and
// the final aggregate is bit-identical to the zero-failure run — with
// no goroutines leaked. Run under -race in CI.
func TestWorkerFailureRetries(t *testing.T) {
	spec := pllSpec(500, 48, 5)
	want := baseline(t, spec)
	before := runtime.NumGoroutine()

	// Workers heartbeat every third of a TTL; under the race detector on
	// a loaded 2-vCPU host, heartbeats arrived more than 300ms apart. The
	// test waits out the TTL once, for the victim's lease.
	c := cluster.NewCoordinator(cluster.Options{
		LeaseTTL: 2 * time.Second,
		Tick:     20 * time.Millisecond,
		Logf:     t.Logf,
	})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)

	// The victim dies "mid-lease": its context is canceled the moment it
	// is granted work, so the range is never completed — only the lease
	// TTL can recover it.
	victimCtx, killVictim := context.WithCancel(context.Background())
	victimDead := make(chan struct{})
	leased := make(chan cluster.Lease, 1)
	victim := &cluster.Worker{
		Coordinator: srv.URL,
		ID:          "victim",
		Workers:     1,
		Poll:        10 * time.Millisecond,
		OnLease: func(l cluster.Lease) {
			killVictim()
			leased <- l
		},
		Logf: t.Logf,
	}
	go func() {
		defer close(victimDead)
		victim.Run(victimCtx)
	}()
	waitLive(t, c, 1)

	type result struct {
		agg  ensemble.Aggregates
		dist cluster.Distribution
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		agg, dist, err := c.Run(context.Background(), spec, noLocal(t), nil)
		resCh <- result{agg, dist, err}
	}()

	// Let the victim grab (and die on) the first lease before healthy
	// workers join, so at least one range must be retried.
	var victimLease cluster.Lease
	select {
	case victimLease = <-leased:
	case <-time.After(5 * time.Second):
		t.Fatal("victim never got a lease")
	}

	// The coordinator runs ranges itself whenever no worker is live, and
	// the dead victim stays live for one TTL after its last contact; on a
	// loaded host the healthy workers' first poll can come later than
	// that. So the test heartbeats the victim's lease on its behalf until
	// the healthy workers have completed every other range: they are
	// live, polling for work, when the lease lapses and is reissued.
	stop := startWorkers(t, srv.URL, 2, 10*time.Millisecond, nil)
	others := uint64(len(ensemble.PlanRanges(spec.Replicates)) - 1)
	for deadline := time.Now().Add(time.Minute); c.LeaseCounts()["completed"] < others; {
		if !c.Heartbeat(victimLease.ID) {
			t.Fatal("the victim's lease lapsed while the test kept it alive")
		}
		if time.Now().After(deadline) {
			t.Fatal("the healthy workers did not complete the other ranges")
		}
		time.Sleep(10 * time.Millisecond)
	}
	<-victimDead

	res := <-resCh
	got, dist, err := res.agg, res.dist, res.err
	stop()
	srv.Close()
	c.Close()
	if err != nil {
		t.Fatalf("Run after worker failure: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregates after worker failure differ:\n got %+v\nwant %+v", got, want)
	}
	counts := c.LeaseCounts()
	if counts["expired"] < 1 || counts["retried"] < 1 {
		t.Fatalf("expected at least one expired and one retried lease, got %v", counts)
	}
	if dist.Retries < 1 {
		t.Fatalf("distribution records no retries: %+v", dist)
	}

	// All worker/coordinator goroutines must wind down.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDuplicateCompletionResolvesDeterministically drives the lease
// protocol at method level: a range completed twice folds exactly once,
// and the duplicate is acknowledged without being accepted.
func TestDuplicateCompletionResolvesDeterministically(t *testing.T) {
	spec := pllSpec(400, 16, 3) // two ranges of 8
	want := baseline(t, spec)
	c := cluster.NewCoordinator(cluster.Options{Tick: 20 * time.Millisecond})
	defer c.Close()

	// Mark a worker live before the run starts so the coordinator leaves
	// the ranges to "the cluster" (this test).
	if l, err := c.Lease("w1"); err != nil || l != nil {
		t.Fatalf("idle lease request: %v, %v", l, err)
	}

	type result struct {
		agg  ensemble.Aggregates
		dist cluster.Distribution
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		agg, dist, err := c.Run(context.Background(), spec, noLocal(t), nil)
		resCh <- result{agg, dist, err}
	}()

	lease := func(worker string) *cluster.Lease {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			l, err := c.Lease(worker)
			if err != nil {
				t.Fatalf("lease: %v", err)
			}
			if l != nil {
				return l
			}
			if time.Now().After(deadline) {
				t.Fatal("no lease granted")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	partial := func(l *cluster.Lease) []byte {
		t.Helper()
		wspec, err := l.Spec.Spec()
		if err != nil {
			t.Fatalf("lease spec: %v", err)
		}
		data, err := rangePartial(t, wspec, l.Range).MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}

	l0 := lease("w1")
	l1 := lease("w2")
	if l0.Range.Index == l1.Range.Index {
		t.Fatalf("both leases cover range %d", l0.Range.Index)
	}
	p0, p1 := partial(l0), partial(l1)

	if !c.Heartbeat(l0.ID) {
		t.Fatal("live lease rejected heartbeat")
	}
	if ok, err := c.Complete(l0.ID, "w1", p0); err != nil || !ok {
		t.Fatalf("first completion: accepted=%v err=%v", ok, err)
	}
	if ok, err := c.Complete(l0.ID, "w1", p0); err != nil || ok {
		t.Fatalf("duplicate completion must be acknowledged but not accepted: accepted=%v err=%v", ok, err)
	}
	if c.Heartbeat(l0.ID) {
		t.Fatal("completed lease still accepts heartbeats")
	}
	if ok, err := c.Complete("l999", "w1", p0); err == nil || ok {
		t.Fatal("unknown lease accepted a completion")
	}
	if ok, err := c.Complete(l1.ID, "w2", p1); err != nil || !ok {
		t.Fatalf("second range completion: accepted=%v err=%v", ok, err)
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	if !reflect.DeepEqual(res.agg, want) {
		t.Fatalf("aggregates differ:\n got %+v\nwant %+v", res.agg, want)
	}
	if res.dist.Mode != "cluster" || res.dist.Workers != 2 || res.dist.RemoteRanges != 2 {
		t.Fatalf("unexpected distribution %+v", res.dist)
	}
}

// TestLeaseExpiryFallsBackLocally grants the only range of a run to a
// worker that never returns; after the TTL the coordinator reclaims the
// range, counts the expiry, and finishes the run itself.
func TestLeaseExpiryFallsBackLocally(t *testing.T) {
	spec := pllSpec(400, 8, 3) // exactly one range
	want := baseline(t, spec)
	c := cluster.NewCoordinator(cluster.Options{
		LeaseTTL: 150 * time.Millisecond,
		Tick:     20 * time.Millisecond,
		Logf:     t.Logf,
	})
	defer c.Close()

	if l, err := c.Lease("w1"); err != nil || l != nil {
		t.Fatalf("idle lease request: %v, %v", l, err)
	}
	type result struct {
		agg  ensemble.Aggregates
		dist cluster.Distribution
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		agg, dist, err := c.Run(context.Background(), spec, localRunner(2), nil)
		resCh <- result{agg, dist, err}
	}()

	deadline := time.Now().Add(5 * time.Second)
	var granted *cluster.Lease
	for granted == nil {
		l, err := c.Lease("w1")
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		granted = l
		if time.Now().After(deadline) {
			t.Fatal("no lease granted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Never complete it; the worker goes silent and its liveness window
	// lapses, so after expiry the coordinator runs the range itself.
	res := <-resCh
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	if !reflect.DeepEqual(res.agg, want) {
		t.Fatalf("aggregates differ:\n got %+v\nwant %+v", res.agg, want)
	}
	if res.dist.Mode != "local" || res.dist.LocalRanges != 1 || res.dist.Retries != 1 {
		t.Fatalf("unexpected distribution %+v", res.dist)
	}
	if counts := c.LeaseCounts(); counts["expired"] != 1 {
		t.Fatalf("expected exactly one expired lease, got %v", counts)
	}
	// A completion for the long-expired lease is acknowledged but cannot
	// be accepted: the run is gone.
	wspec, _ := granted.Spec.Spec()
	data, _ := rangePartial(t, wspec, granted.Range).MarshalBinary()
	if ok, err := c.Complete(granted.ID, "w1", data); ok {
		t.Fatalf("completion on a finished run was accepted (err=%v)", err)
	}
}
