// Package sweep expands a parameter grid over the protocol registry
// into ensemble cells and measures the scaling behavior the paper's
// headline claims are about. A sweep spec has axes — a population grid,
// a protocol list, optionally a knowledge-parameter list — whose cross
// product is the cell set; each cell runs as a full Monte-Carlo
// ensemble (internal/ensemble, with the replicate-0 ≡ single-job seed
// discipline intact), and the finished grid is summarized as fitted
// a·lg n + b curves with R² plus the log-log power exponent — the
// Theorem 1 "stabilization time is Θ(log n)" check as data, and the
// matching Sudo–Masuzawa lower bound's shape, checkable in one request.
//
// The package is deliberately service-agnostic: the popprotod sweep run
// kind and the sweep command-line tool both expand and summarize through
// here (the harness's Theorem 1 experiment measures the same cells as
// plain ensembles and fits them itself), while execution is pluggable
// (Options.RunCell) so the service can substitute its cache-aware,
// store-backed cell runner. The package owns only the grid
// (axis canonicalization and expansion): what a cell means is resolved
// by ensemble.Canonicalize, the one resolver behind jobs, experiments
// and cells alike, so a cell is the standalone experiment over its spec.
package sweep

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/stats"
)

// Spec describes one sweep: the axes plus the per-cell ensemble knobs.
type Spec struct {
	// Protocols is the protocol axis: registry keys, at least one.
	// Duplicates are dropped; order is preserved (it is the report
	// order).
	Protocols []string
	// Ns is the population-size axis, at least one entry; canonicalized
	// to sorted ascending with duplicates dropped.
	Ns []int
	// Ms is the optional knowledge-parameter axis for the PLL variants
	// (nil = [0], the canonical ⌈lg n⌉); canonicalized like Ns. Nonzero
	// values are rejected per cell for protocols without an m.
	Ms []int
	// Engine selects the per-cell engine. pp.EngineAuto (the sweep
	// default at the service layer) resolves per cell via the registry's
	// recommendation (registry.Entry.RecommendedEngine) — small
	// populations on the per-agent engine, large census-friendly ones on
	// the hybrid engine — which is what makes a 10³..10⁸ grid practical
	// in one request.
	Engine pp.Engine
	// Seed is the per-cell ensemble base seed; 0 derives one per cell
	// from the cell's canonical identity, exactly as a seedless
	// experiment (or job) over that cell's spec would, so every cell is
	// bit-identical to the standalone experiment with the same spec.
	Seed uint64
	// Replicates is the per-cell ensemble size R (required, >= 1).
	Replicates int
	// CITarget, when positive, lets each cell stop early once the
	// relative 95% CI half-width of its mean time reaches it.
	CITarget float64
	// MinReplicates is the per-cell early-stop floor (0 = 16).
	MinReplicates int
	// MaxParallelTime caps each replicate, in parallel time units (0 =
	// the protocol's registry default budget; values beyond it are
	// clamped to it by registry.Entry.Budget, as for service jobs).
	MaxParallelTime float64
	// ObsCap is the replicate drive schedule's observation cap (0 =
	// ensemble.DefaultObsCap). Part of the deterministic surface.
	ObsCap int
}

// Cell is one grid point: a protocol at a population size, fully
// canonicalized into the ensemble spec that measures it.
type Cell struct {
	// Index is the cell's position in expansion order (protocol-major,
	// then m, then n ascending).
	Index    int
	Protocol string
	N        int
	M        int
	// Engine is the resolved concrete engine (never pp.EngineAuto).
	Engine pp.Engine
	// Ensemble is the canonical ensemble spec (seed and budget resolved).
	Ensemble ensemble.Spec
}

// Canonicalize validates spec, canonicalizes its axes, and expands them
// into cells. Each cell's meaning — engine, seed, budget, replicate and
// early-stop knobs — is resolved by ensemble.Canonicalize, the one
// resolver jobs and experiments go through too, with the per-replicate
// cap applied by registry.Entry.Budget. Every cell is resolved up
// front, so an invalid grid fails before any simulation. Errors wrap
// registry.ErrBadSpec.
func Canonicalize(spec Spec) (Spec, []Cell, error) {
	if len(spec.Protocols) == 0 {
		return Spec{}, nil, fmt.Errorf("%w: sweep needs at least one protocol (valid: %s)",
			registry.ErrBadSpec, strings.Join(registry.Keys(), ", "))
	}
	if len(spec.Ns) == 0 {
		return Spec{}, nil, fmt.Errorf("%w: sweep needs at least one population size", registry.ErrBadSpec)
	}
	spec.Protocols = dedupe(spec.Protocols)
	spec.Ns = sortedDedupe(spec.Ns)
	if len(spec.Ms) == 0 {
		spec.Ms = []int{0}
	}
	spec.Ms = sortedDedupe(spec.Ms)

	cells := make([]Cell, 0, len(spec.Protocols)*len(spec.Ms)*len(spec.Ns))
	for _, proto := range spec.Protocols {
		for _, m := range spec.Ms {
			for _, n := range spec.Ns {
				espec, entry, err := ensemble.Canonicalize(ensemble.Spec{
					Registry: registry.Spec{
						Protocol: proto,
						N:        n,
						Engine:   spec.Engine, // auto resolves inside
						Seed:     spec.Seed,   // 0 derives per cell inside
						M:        m,
					},
					Replicates:    spec.Replicates,
					CITarget:      spec.CITarget,
					MinReplicates: spec.MinReplicates,
					ObsCap:        spec.ObsCap,
				})
				if err == nil {
					espec.Budget, err = entry.Budget(n, spec.MaxParallelTime)
				}
				if err != nil {
					return Spec{}, nil, fmt.Errorf("cell %s n=%d m=%d: %w", proto, n, m, err)
				}
				cells = append(cells, Cell{
					Index:    len(cells),
					Protocol: proto,
					N:        n,
					M:        m,
					Engine:   espec.Registry.Engine,
					Ensemble: espec,
				})
			}
		}
	}
	return spec, cells, nil
}

// dedupe drops duplicates preserving first-occurrence order.
func dedupe(keys []string) []string {
	seen := make(map[string]bool, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// sortedDedupe sorts ascending and drops duplicates.
func sortedDedupe(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// Outcome is one finished (or canceled-partway) cell.
type Outcome struct {
	Cell
	Aggregates ensemble.Aggregates
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds each cell ensemble's replicate parallelism (<= 0
	// selects NumCPU). Cells themselves run sequentially: one cell
	// already saturates the workers, and sequential cells keep the
	// streamed updates in grid order.
	Workers int
	// RunCell, when set, replaces the default executor (ensemble.Run)
	// for each cell — the popprotod manager substitutes a runner that
	// consults its experiment cache and durable store first. It must
	// return the cell's final aggregates.
	RunCell func(ctx context.Context, cell Cell) (ensemble.Aggregates, error)
	// OnCellStart/OnCellUpdate/OnCellDone observe the sweep as it runs,
	// in cell order: start before a cell's first replicate, update per
	// incorporated replicate (default executor only), done with the
	// final aggregates. All run on the sweep goroutine.
	OnCellStart  func(cell Cell)
	OnCellUpdate func(cell Cell, agg ensemble.Aggregates)
	OnCellDone   func(cell Cell, agg ensemble.Aggregates)
}

// Result is a finished sweep.
type Result struct {
	// Spec is the canonicalized spec the sweep ran.
	Spec Spec
	// Outcomes holds the finished cells, in cell order. On cancellation
	// it holds the cells finished before the interruption.
	Outcomes []Outcome
	// Summary is the scaling summary over the finished cells.
	Summary Summary
}

// Run expands spec and executes every cell sequentially, each as a full
// ensemble over opts.Workers replicate goroutines. On cancellation it
// returns the outcomes finished so far together with ctx's error.
func Run(ctx context.Context, spec Spec, opts Options) (Result, error) {
	spec, cells, err := Canonicalize(spec)
	if err != nil {
		return Result{}, err
	}
	runCell := opts.RunCell
	if runCell == nil {
		runCell = func(ctx context.Context, cell Cell) (ensemble.Aggregates, error) {
			var onUpdate func(ensemble.Aggregates)
			if opts.OnCellUpdate != nil {
				onUpdate = func(agg ensemble.Aggregates) { opts.OnCellUpdate(cell, agg) }
			}
			res, err := ensemble.Run(ctx, cell.Ensemble, ensemble.Options{
				Workers:  opts.Workers,
				OnUpdate: onUpdate,
			})
			return res.Aggregates, err
		}
	}

	res := Result{Spec: spec}
	for _, cell := range cells {
		if ctx.Err() != nil {
			res.Summary = Summarize(res.Outcomes)
			return res, ctx.Err()
		}
		if opts.OnCellStart != nil {
			opts.OnCellStart(cell)
		}
		agg, err := runCell(ctx, cell)
		if err != nil {
			res.Summary = Summarize(res.Outcomes)
			return res, fmt.Errorf("sweep cell %s n=%d m=%d (engine %s): %w",
				cell.Protocol, cell.N, cell.M, cell.Engine, err)
		}
		res.Outcomes = append(res.Outcomes, Outcome{Cell: cell, Aggregates: agg})
		if opts.OnCellDone != nil {
			opts.OnCellDone(cell, agg)
		}
	}
	res.Summary = Summarize(res.Outcomes)
	return res, nil
}

// ScalingFit is the fitted growth shape of one (protocol, m) group
// across the population axis: the direct a·lg n + b fit the paper's
// O(log n) bounds predict, plus the log-log power exponent that
// separates logarithmic growth (exponent ≈ 0) from polynomial growth
// (linear time gives ≈ 1) — Theorem 1 and the Sudo–Masuzawa lower
// bound's shape as data.
type ScalingFit struct {
	Protocol string `json:"protocol"`
	M        int    `json:"m,omitempty"`
	// Engines lists the distinct engines the group's cells ran on, in
	// cell order (engine=auto may pick different engines across the n
	// axis; the engines agree in distribution, so the fit is sound).
	Engines []string `json:"engines"`
	// Points is the number of cells the fit used (cells whose ensembles
	// produced a positive mean time).
	Points int `json:"points"`
	// A, B, R2: mean parallel time = A·lg n + B, with the coefficient of
	// determination.
	A  float64 `json:"a"`
	B  float64 `json:"b"`
	R2 float64 `json:"r2"`
	// Exponent is the log-log power-fit exponent of time against n.
	Exponent float64 `json:"logLogExponent"`
}

// Summary is a sweep's scaling summary: one fit per (protocol, m) group
// with at least two usable grid points.
type Summary struct {
	Fits []ScalingFit `json:"fits,omitempty"`
}

// Fit returns the fit for a (protocol, m) group, if the sweep produced
// one.
func (s Summary) Fit(protocol string, m int) (ScalingFit, bool) {
	for _, f := range s.Fits {
		if f.Protocol == protocol && f.M == m {
			return f, true
		}
	}
	return ScalingFit{}, false
}

// Summarize fits the scaling curves over finished cells, grouped by
// (protocol, m) in cell order. Groups with fewer than two distinct
// usable population sizes yield no fit.
func Summarize(outcomes []Outcome) Summary {
	type groupKey struct {
		protocol string
		m        int
	}
	var order []groupKey
	groups := make(map[groupKey][]Outcome)
	for _, o := range outcomes {
		k := groupKey{o.Protocol, o.M}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], o)
	}

	var sum Summary
	for _, k := range order {
		var xs, ys []float64
		var engines []string
		for _, o := range groups[k] {
			if o.Aggregates.Replicates == 0 || o.Aggregates.MeanParallelTime <= 0 {
				continue // unusable cell (canceled early, or a degenerate time)
			}
			xs = append(xs, float64(o.N))
			ys = append(ys, o.Aggregates.MeanParallelTime)
			if name := o.Engine.String(); !slices.Contains(engines, name) {
				engines = append(engines, name)
			}
		}
		if len(xs) < 2 || xs[0] == xs[len(xs)-1] {
			continue // a fit needs at least two distinct population sizes
		}
		logFit := stats.FitLogX(xs, ys)
		power := stats.PowerFit(xs, ys)
		sum.Fits = append(sum.Fits, ScalingFit{
			Protocol: k.protocol,
			M:        k.m,
			Engines:  engines,
			Points:   len(xs),
			A:        logFit.Slope,
			B:        logFit.Intercept,
			R2:       logFit.R2,
			Exponent: power.Slope,
		})
	}
	return sum
}
