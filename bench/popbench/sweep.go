package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"popproto/internal/core"
	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/stats"
	"popproto/internal/sweep"
)

// The theorem1-sweep workload runs Theorem 1 rows through sweep.Run with
// engine=auto:
//
//   - the large row, PLL n ∈ {2¹⁶, 2¹⁷}, resolves to the hybrid engine and
//     runs full elections, BackUp tails included. It is the canonical
//     seedless row (the cells cmd/sweep computes with -seed 0), run once
//     per pass: a quarter of PLL elections end in a BackUp tail twenty
//     times longer than the rest, so a few seed-drawn replicates would
//     make the row's time a lottery rather than a measurement.
//   - small rows, PLL n ∈ {2⁶, 2⁸}, resolve to the agent engine, with
//     seeds drawn from -seed, repeated until the budget is spent. A median
//     election there costs well under a millisecond, so the per-replicate
//     overhead in registry, ensemble and sweep is a visible share, and
//     thousands of replicates per pass average the tails out (at n ≥ 2¹⁰
//     the tails are long enough that replicates per second moved by a
//     fifth from seed to seed). They run on one worker, which makes the
//     interval between the ensemble's in-order results the latency of one
//     replicate.
var (
	largeNs = []int{1 << 16, 1 << 17}
	smallNs = []int{1 << 6, 1 << 8}
)

const (
	largeReplicates = 4
	largeWorkers    = 2
	smallReplicates = 32
	smallWorkers    = 1
	// minSmallRows small rows always run; the first is digested.
	minSmallRows = 2
)

func rowSpec(ns []int, replicates int, seed uint64) sweep.Spec {
	return sweep.Spec{Protocols: []string{"pll"}, Ns: ns, Engine: pp.EngineAuto, Seed: seed, Replicates: replicates}
}

// sweepSetup is one set-up unit: a one-cell seedless warm-up row, the
// same elections every time.
func sweepSetup() error {
	_, err := sweep.Run(context.Background(), rowSpec([]int{1 << 8}, 8, 0), sweep.Options{Workers: smallWorkers})
	return err
}

// rowResult is what one sweep.Run call delivered.
type rowResult struct {
	outcomes  []sweep.Outcome
	reps      map[int][]ensemble.Replicate // by n, in replicate order
	cellTime  map[int]time.Duration        // by n
	latencyMs []float64                    // per replicate, single-worker rows only
}

// runRow executes one row through sweep.Run, with a cell runner that
// calls ensemble.Run as the default one does but observes every
// replicate, and checks each replicate and cell.
func (p *pass) runRow(spec sweep.Spec, workers int, run string) (rowResult, error) {
	res := rowResult{reps: make(map[int][]ensemble.Replicate), cellTime: make(map[int]time.Duration)}
	sid := p.tr.open("sweep.Run", 0, run)
	out, err := sweep.Run(context.Background(), spec, sweep.Options{
		Workers: workers,
		RunCell: func(ctx context.Context, cell sweep.Cell) (ensemble.Aggregates, error) {
			cid := p.tr.open("ensemble.Run", sid, run)
			defer p.tr.close(cid)
			start := time.Now()
			last := start
			r, err := ensemble.Run(ctx, cell.Ensemble, ensemble.Options{
				Workers: workers,
				OnReplicate: func(r ensemble.Replicate) {
					now := time.Now()
					if workers == 1 {
						res.latencyMs = append(res.latencyMs, ms(now.Sub(last)))
					}
					last = now
					res.reps[cell.N] = append(res.reps[cell.N], r)
				},
			})
			res.cellTime[cell.N] += time.Since(start)
			return r.Aggregates, err
		},
	})
	p.tr.close(sid)
	res.outcomes = out.Outcomes
	if err != nil {
		return res, err
	}
	for _, o := range out.Outcomes {
		for _, r := range res.reps[o.N] {
			p.attempted++
			if !p.check(r.Stabilized && r.Leaders == 1,
				"%s n=%d replicate %d: stabilized=%v leaders=%d", run, o.N, r.Rep, r.Stabilized, r.Leaders) {
				p.failed++
			}
		}
		p.check(o.Aggregates.Replicates == spec.Replicates && o.Aggregates.Stabilized == spec.Replicates,
			"%s n=%d: %d of %d replicates stabilized", run, o.N, o.Aggregates.Stabilized, o.Aggregates.Replicates)
	}
	return res, nil
}

// digestRow adds a row's aggregates, which are bit-identical for a given
// spec, to the digest.
func (p *pass) digestRow(name string, res rowResult) {
	for _, o := range res.outcomes {
		agg, _ := json.Marshal(o.Aggregates)
		p.digestLine("%s n=%d engine=%s %s", name, o.N, o.Engine, agg)
	}
}

// meanBound is the Theorem 1 shape check: mean parallel time at most
// 20·⌈lg n⌉.
func meanBound(n int) float64 { return 20 * float64(core.CeilLog2(n)) }

func runSweepWorkload(p *pass) error {
	start := time.Now()
	setupTime, err := p.setupDue(start)
	if err != nil {
		return err
	}
	large, err := p.runRow(rowSpec(largeNs, largeReplicates, 0), largeWorkers, "large")
	if err != nil {
		return err
	}
	p.digestRow("large", large)
	for _, o := range large.outcomes {
		p.check(o.Aggregates.MeanParallelTime <= meanBound(o.N),
			"large n=%d: mean parallel time %.1f > %.0f", o.N, o.Aggregates.MeanParallelTime, meanBound(o.N))
	}

	cellReps := map[int]int{}
	cellTime := map[int]time.Duration{}
	addCells := func(res rowResult) {
		for n, reps := range res.reps {
			cellReps[n] += len(reps)
			cellTime[n] += res.cellTime[n]
		}
	}
	addCells(large)
	var latMs []float64
	var first rowResult
	pooled := map[int][]float64{} // small-row parallel times by n
	for rows := 0; p.keepGoing(start, rows, minSmallRows); rows++ {
		d, err := p.setupDue(start)
		if err != nil {
			return err
		}
		setupTime += d
		res, err := p.runRow(rowSpec(smallNs, smallReplicates, mix(p.seed, 2, uint64(rows))), smallWorkers,
			fmt.Sprintf("small-%d", rows))
		if err != nil {
			return err
		}
		if rows == 0 {
			first = res
			p.digestRow("small-0", res)
		}
		latMs = append(latMs, res.latencyMs...)
		addCells(res)
		for n, reps := range res.reps {
			for _, r := range reps {
				pooled[n] = append(pooled[n], r.ParallelTime)
			}
		}
	}
	wall := time.Since(start) - setupTime
	if err := p.setupRest(); err != nil {
		return err
	}
	// The small rows' cells are one ensemble per n split across calls, so
	// the Theorem 1 bound applies to their pooled mean; a 32-replicate
	// mean alone is too tail-sensitive to test.
	for _, n := range smallNs {
		m := stats.Mean(pooled[n]) // every small row has a cell per n
		p.check(m <= meanBound(n), "small rows n=%d: pooled mean parallel time %.1f > %.0f", n, m, meanBound(n))
	}
	p.latencyMetrics(p.attempted, wall, latMs, 0.99)
	for n, reps := range cellReps {
		p.details[fmt.Sprintf("ensemble.cell_replicates_per_s.n%d", n)] = float64(reps) / cellTime[n].Seconds()
	}

	if p.tr == nil {
		return nil
	}
	// Per-layer numbers: the sweep layer's self time from the spans, then
	// a traced sequential replay of the first small row's replicates and
	// of replicate 0 of each large cell through registry.New and
	// ensemble.Drive, checked step for step against what the ensemble
	// reported.
	spans := p.tr.all()
	var sweepMs float64
	for _, s := range spans {
		if s.Name == "sweep.Run" {
			sweepMs += ms(s.dur())
		}
	}
	p.layers["sweep.self_frac"] = ratio(selfTimes(spans)["sweep.Run"], sweepMs)
	var st engineStats
	mem := startMem()
	for _, o := range first.outcomes {
		for _, r := range first.reps[o.N] {
			p.replayReplicate(o.Cell, r, &st)
		}
	}
	for _, o := range large.outcomes {
		p.replayReplicate(o.Cell, large.reps[o.N][0], &st)
	}
	mem.done(p, st.ops)
	st.fill(p)
	return nil
}

// replayReplicate re-runs one replicate in-process and checks that it
// ends exactly where the ensemble's run of it ended.
func (p *pass) replayReplicate(cell sweep.Cell, want ensemble.Replicate, st *engineStats) {
	run := fmt.Sprintf("replay-n%d-%d", cell.N, want.Rep)
	spec := cell.Ensemble.Registry
	spec.Seed = ensemble.ReplicateSeed(spec.Seed, want.Rep)
	el, err := p.replay(spec, cell.Ensemble.Budget, 0, run, st)
	if !p.check(err == nil, "%s: %v", run, err) {
		return
	}
	p.check(el.Steps() == want.Steps && el.Leaders() == want.Leaders,
		"%s: replay ended at %d steps with %d leaders, the ensemble reported %d and %d",
		run, el.Steps(), el.Leaders(), want.Steps, want.Leaders)
}
