// Package ensemble runs parallel Monte-Carlo replication of registry
// protocols: R independent elections of one spec fanned across a bounded
// worker pool, streamed into online aggregators (Welford mean/variance
// with 95% CIs, a mergeable quantile sketch for p50/p90/p99, an
// empirical survival curve of parallel stabilization time), with
// optional early stopping once the relative CI half-width drops below a
// target.
//
// The paper's headline claims are distributional — O(log n) *expected*
// stabilization time, Table 1/2 statistics over many runs — so the unit
// of reproduction is an ensemble, not a single election. This package is
// the one replication engine behind every experiment of the harness, the
// examples, the leaderelect -replicates flag, sweeps, cluster leases and
// the popprotod /v1/experiments API: registry-spec ensembles run through
// Run, RunRange and RunRanges, and experiments that instrument each run
// beyond what a registry election reports fan out through Dispatch, the
// same worker pool with the same seeds and the same in-order fold.
//
// Determinism is a first-class contract, at two levels:
//
//   - Replicate level: replicate r of an ensemble with base seed s runs
//     with seed ReplicateSeed(s, r), and ReplicateSeed(s, 0) == s, so
//     replicate 0 is bit-identical to a single run of the same spec.
//     Because the census engines consume randomness differently at
//     different RunUntilLeaders boundaries, replicates execute through
//     the same Drive chunk schedule the popprotod job runner uses.
//   - Aggregate level: workers may finish out of order, but results are
//     incorporated strictly in replicate order (a reorder buffer),
//     floating-point accumulation included, so the same spec yields
//     bit-identical Aggregates regardless of worker count — including
//     the early-stopping decision, which depends only on the in-order
//     prefix.
package ensemble

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"popproto/internal/registry"
)

// DefaultObsCap is the default observation cap of Drive's chunk
// schedule, matching the popprotod job trajectory cap so that single
// jobs and ensemble replicates advance their simulations identically.
const DefaultObsCap = 256

// DeriveSeed maps the seed-free identity of a canonical spec to a base
// scheduler seed. It is the single derivation shared by the popprotod
// job manager and this package, so a seedless job and a seedless
// experiment over the same spec agree on their base seed.
func DeriveSeed(protocol string, n int, engine string, m int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed|%s|%d|%s|%d", protocol, n, engine, m)
	return h.Sum64()
}

// splitMix64 is the SplitMix64 output function, used to derive replicate
// seeds from the base seed.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ReplicateSeed returns the scheduler seed for replicate rep of an
// ensemble with the given base seed. Replicate 0 runs with the base seed
// itself — a single run IS replicate 0 — and later replicates take
// independent-looking SplitMix64-derived seeds.
func ReplicateSeed(base uint64, rep int) uint64 {
	if rep == 0 {
		return base
	}
	return splitMix64(base ^ uint64(rep)*0x9e3779b97f4a7c15)
}

// Drive advances el until at most target leaders remain or budget steps
// have executed, in the deterministic chunk schedule of a managed run:
// chunks of one parallel-time unit, with the chunk doubling whenever the
// observation count would exceed obsCap (<= 0 selects DefaultObsCap) —
// exactly the popprotod snapshot-decimation schedule. observe (optional)
// runs once before the first chunk and once after each chunk; ctx
// (optional) is checked at chunk boundaries, and a cancellation makes
// Drive return true with the election stopped where it was.
//
// The chunk schedule is part of a run's deterministic surface: the
// census engines draw randomness differently at different
// RunUntilLeaders boundaries, so every component that promises
// bit-identical runs for one spec — the job runner, ensemble
// replicates — must advance its elections through this one function.
func Drive(ctx context.Context, el registry.Election, target int, budget uint64, obsCap int, observe func()) (canceled bool) {
	if obsCap <= 0 {
		obsCap = DefaultObsCap
	}
	chunk := uint64(el.N())
	obs := 1
	if observe != nil {
		observe()
	}
	for el.Leaders() > target && el.Steps() < budget {
		if ctx != nil && ctx.Err() != nil {
			return true
		}
		el.RunUntilLeaders(target, min(el.Steps()+chunk, budget))
		obs++
		if obs > obsCap {
			// Mirror of the job trajectory decimation: every other stored
			// point dropped (ceil(len/2) kept), cadence doubled.
			obs = (obs + 1) / 2
			chunk *= 2
		}
		if observe != nil {
			observe()
		}
	}
	return false
}

// Spec describes one ensemble: a registry spec replicated R times.
type Spec struct {
	// Registry selects and parameterizes the protocol. Registry.Seed is
	// the ensemble's base seed; 0 derives one from the rest of the spec
	// (DeriveSeed), and replicate r runs with ReplicateSeed(seed, r).
	Registry registry.Spec
	// Replicates is the ensemble size R (required, >= 1).
	Replicates int
	// Budget caps each replicate's interactions (0 = the catalog entry's
	// StepBudget).
	Budget uint64
	// CITarget, when positive, enables early stopping: once at least
	// MinReplicates replicates are incorporated and the relative 95% CI
	// half-width of the mean parallel time drops to CITarget or below,
	// the remaining replicates are skipped.
	CITarget float64
	// MinReplicates is the floor before early stopping may trigger
	// (0 = 16). Ignored without a CITarget.
	MinReplicates int
	// ObsCap is Drive's observation cap (0 = DefaultObsCap). The
	// popprotod experiment runner passes its snapshot cap here so
	// replicate 0 stays bit-identical to a single job.
	ObsCap int
}

// DefaultMinReplicates is the default early-stopping floor.
const DefaultMinReplicates = 16

// Canonicalize validates spec against the registry and resolves its
// defaults (base seed, budget, early-stop floor), returning the
// canonical spec and the catalog entry. Errors wrap registry.ErrBadSpec.
func Canonicalize(spec Spec) (Spec, registry.Entry, error) {
	if spec.Replicates < 1 {
		return Spec{}, registry.Entry{}, fmt.Errorf(
			"%w: ensemble needs replicates >= 1 (got %d)", registry.ErrBadSpec, spec.Replicates)
	}
	if spec.CITarget < 0 {
		return Spec{}, registry.Entry{}, fmt.Errorf(
			"%w: negative ci target %g", registry.ErrBadSpec, spec.CITarget)
	}
	entry, err := registry.Validate(spec.Registry)
	if err != nil {
		return Spec{}, registry.Entry{}, err
	}
	// Resolve the pseudo-engine "auto" before the seed derivation below:
	// the derived seed is a function of the concrete engine name, so an
	// "auto" ensemble must be bit-identical to the explicit ensemble it
	// resolves to.
	if spec.Registry, err = registry.ResolveEngine(spec.Registry); err != nil {
		return Spec{}, registry.Entry{}, err
	}
	if spec.Registry.Seed == 0 {
		spec.Registry.Seed = DeriveSeed(spec.Registry.Protocol, spec.Registry.N,
			spec.Registry.Engine.String(), spec.Registry.M)
	}
	if spec.Budget == 0 {
		spec.Budget = entry.StepBudget(spec.Registry.N)
	}
	if spec.MinReplicates <= 0 {
		spec.MinReplicates = DefaultMinReplicates
	}
	if spec.ObsCap <= 0 {
		spec.ObsCap = DefaultObsCap
	}
	return spec, entry, nil
}

// Options configures an ensemble run.
type Options struct {
	// Workers bounds replicate parallelism (<= 0 selects NumCPU).
	Workers int
	// OnReplicate, when set, observes each incorporated replicate, in
	// replicate order.
	OnReplicate func(Replicate)
	// OnUpdate, when set, observes the running aggregates after each
	// incorporated replicate, in replicate order. Both callbacks run on
	// the Run goroutine and must not block for long.
	OnUpdate func(Aggregates)
}

// Result is a finished (or canceled) ensemble.
type Result struct {
	// Spec is the canonicalized spec the ensemble ran (seed and budget
	// resolved).
	Spec Spec
	// Aggregates summarizes the incorporated replicates.
	Aggregates Aggregates
}

// Dispatch is the replicate executor: it fans replicates [lo, hi)
// across a bounded worker pool (workers <= 0 selects NumCPU), runs
// replicate rep as run(ctx, rep, ReplicateSeed(base, rep)), and hands
// each result to incorporate on the caller's goroutine strictly in
// replicate order (a reorder buffer smooths out-of-order completions),
// so whatever incorporate folds is the same for any worker count.
// incorporate returning true stops dispatch; remaining in-flight
// replicates are drained, not incorporated. Replicates interrupted by
// cancellation (external or a stop) are dropped silently — the caller
// decides from ctx and its own counts how to report a shortfall; any
// other run error cancels the dispatch and is returned.
func Dispatch[T any](ctx context.Context, base uint64, lo, hi, workers int,
	run func(ctx context.Context, rep int, seed uint64) (T, error),
	incorporate func(T) (stop bool),
) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, hi-lo)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Replicate dispatch: workers claim indices from a shared channel so a
	// cancellation (external or early stop) halts dispatch immediately.
	reps := make(chan int)
	go func() {
		defer close(reps)
		for r := lo; r < hi; r++ {
			select {
			case reps <- r:
			case <-runCtx.Done():
				return
			}
		}
	}()

	type result struct {
		rep int
		val T
		err error
	}
	results := make(chan result, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for rep := range reps {
				v, err := run(runCtx, rep, ReplicateSeed(base, rep))
				// The dispatcher drains results until every worker has
				// exited, so this send cannot block indefinitely.
				results <- result{rep: rep, val: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]T, workers)
	next := lo
	stopped := false
	var firstErr error
	for msg := range results {
		if msg.err != nil {
			if !errors.Is(msg.err, context.Canceled) && firstErr == nil {
				firstErr = msg.err
				cancel()
			}
			continue
		}
		pending[msg.rep] = msg.val
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if stopped || firstErr != nil {
				continue // drained, not incorporated
			}
			if incorporate(v) {
				stopped = true
				cancel()
			}
		}
	}
	return firstErr
}

// replicates dispatches replicates [lo, hi) of a canonical spec through
// runReplicate.
func replicates(ctx context.Context, entry registry.Entry, spec Spec, lo, hi, workers int, incorporate func(Replicate) bool) error {
	return Dispatch(ctx, spec.Registry.Seed, lo, hi, workers,
		func(ctx context.Context, rep int, seed uint64) (Replicate, error) {
			return runReplicate(ctx, entry, spec, rep, seed)
		}, incorporate)
}

// Run executes the ensemble: replicates fanned across the worker pool,
// results incorporated in replicate order, early stopping applied when
// configured (decided at canonical range boundaries — see Partial). On
// cancellation it returns the aggregates incorporated so far together
// with ctx's error; the partial result is still deterministic up to the
// point of interruption in replicate count.
func Run(ctx context.Context, spec Spec, opts Options) (Result, error) {
	spec, entry, err := Canonicalize(spec)
	if err != nil {
		return Result{}, err
	}
	agg := newAggregator(spec.Replicates)
	err = replicates(ctx, entry, spec, 0, spec.Replicates, opts.Workers, func(r Replicate) bool {
		rangeClosed := agg.add(r)
		if opts.OnReplicate != nil {
			opts.OnReplicate(r)
		}
		if opts.OnUpdate != nil {
			opts.OnUpdate(agg.aggregates())
		}
		if rangeClosed && spec.CITarget > 0 && agg.count() >= spec.MinReplicates &&
			agg.relHalfWidth() <= spec.CITarget {
			agg.early = true
			return true // skip the remaining replicates
		}
		return false
	})
	res := Result{Spec: spec, Aggregates: agg.aggregates()}
	switch {
	case err != nil:
		return res, err
	case agg.early:
		return res, nil
	case ctx.Err() != nil && agg.count() < spec.Replicates:
		return res, ctx.Err()
	default:
		return res, nil
	}
}

// RunRange executes replicates [lo, hi) of the spec and returns their
// Partial — the unit of work a cluster worker performs for one lease.
// The partial is bit-identical no matter where or with how many workers
// it is computed (results are added in replicate order). An interrupted
// range returns ctx's error rather than a partial: a coordinator must
// only ever merge complete ranges.
func RunRange(ctx context.Context, spec Spec, lo, hi, workers int) (*Partial, error) {
	spec, entry, err := Canonicalize(spec)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > spec.Replicates {
		return nil, fmt.Errorf("ensemble: invalid replicate range [%d,%d) of %d",
			lo, hi, spec.Replicates)
	}
	start := time.Now()
	p := NewPartial(lo, hi)
	err = replicates(ctx, entry, spec, lo, hi, workers, func(r Replicate) bool {
		p.Add(r)
		return false
	})
	if err != nil {
		return nil, err
	}
	if p.Count < hi-lo {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("ensemble: range [%d,%d) incomplete (%d of %d replicates)",
			lo, hi, p.Count, hi-lo)
	}
	p.ElapsedMillis = time.Since(start).Milliseconds()
	return p, nil
}

// RunRanges executes a contiguous ascending block of canonical ranges
// as one pipelined dispatch (no barrier between ranges), delivering
// each range's Partial to onRange in range order as it completes.
// onRange returning true stops the block — this is how a coordinator's
// early-stopping or reassignment decision propagates into local
// execution. It is the local-participation engine of the cluster
// coordinator: the degenerate no-remote-workers case runs the whole
// partition through one call with full replicate parallelism.
func RunRanges(ctx context.Context, spec Spec, ranges []Range, workers int, onRange func(*Partial) (stop bool)) error {
	spec, entry, err := Canonicalize(spec)
	if err != nil {
		return err
	}
	if len(ranges) == 0 {
		return nil
	}
	for i, rg := range ranges {
		switch {
		case rg.Lo < 0 || rg.Hi <= rg.Lo || rg.Hi > spec.Replicates:
			return fmt.Errorf("ensemble: invalid range [%d,%d) of %d", rg.Lo, rg.Hi, spec.Replicates)
		case i > 0 && rg.Lo != ranges[i-1].Hi:
			return fmt.Errorf("ensemble: range block not contiguous at [%d,%d)", rg.Lo, rg.Hi)
		}
	}
	idx := 0
	cur := NewPartial(ranges[0].Lo, ranges[0].Hi)
	start := time.Now()
	stopped := false
	err = replicates(ctx, entry, spec, ranges[0].Lo, ranges[len(ranges)-1].Hi, workers, func(r Replicate) bool {
		cur.Add(r)
		if cur.Count < cur.Hi-cur.Lo {
			return false
		}
		now := time.Now()
		cur.ElapsedMillis = now.Sub(start).Milliseconds()
		start = now
		done := cur
		if idx++; idx < len(ranges) {
			cur = NewPartial(ranges[idx].Lo, ranges[idx].Hi)
		}
		if onRange(done) {
			stopped = true
			return true
		}
		return false
	})
	if err != nil {
		return err
	}
	if !stopped && idx < len(ranges) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return fmt.Errorf("ensemble: range block incomplete (%d of %d ranges)", idx, len(ranges))
	}
	return nil
}

// runReplicate executes replicate rep (scheduler seed seed) to
// completion (or cancellation) through the shared Drive schedule. A
// canceled replicate returns context.Canceled; Dispatch treats that as
// "dropped", not as a failure.
func runReplicate(ctx context.Context, entry registry.Entry, spec Spec, rep int, seed uint64) (Replicate, error) {
	rspec := spec.Registry
	rspec.Seed = seed
	el, err := registry.New(rspec)
	if err != nil {
		// The spec was validated by Canonicalize; this is an internal
		// inconsistency, surfaced rather than panicking the worker.
		return Replicate{}, fmt.Errorf("ensemble: replicate %d: %w", rep, err)
	}
	if canceled := Drive(ctx, el, entry.Target, spec.Budget, spec.ObsCap, nil); canceled {
		return Replicate{}, context.Canceled
	}
	return Replicate{
		Rep:          rep,
		Seed:         rspec.Seed,
		Steps:        el.Steps(),
		ParallelTime: el.ParallelTime(),
		Stabilized:   el.Leaders() <= entry.Target,
		Leaders:      el.Leaders(),
	}, nil
}
