package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"popproto/internal/cluster"
	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/service/runcore"
	"popproto/internal/store"
	"popproto/internal/sweep"
)

// SweepSpec is the wire-format sweep description (the POST /v1/sweeps
// body): a parameter grid — a population axis × a protocol axis ×
// optionally a knowledge-parameter axis — whose cells each run as a
// full Monte-Carlo ensemble, finished with a scaling summary (fitted
// a·lg n + b curves with R²). Engine "" defaults to "auto": each cell
// resolves to the registry's recommendation for its protocol and n,
// which is what makes a 10³..10⁸ grid practical in one request.
type SweepSpec struct {
	// Protocols is the protocol axis (registry keys, at least one;
	// duplicates dropped, order preserved).
	Protocols []string `json:"protocols"`
	// Ns is the population axis (at least one; canonicalized to sorted
	// ascending, duplicates dropped).
	Ns []int `json:"ns"`
	// Ms is the optional knowledge-parameter axis for the PLL variants
	// (omitted = [0], the canonical ⌈lg n⌉).
	Ms []int `json:"ms,omitempty"`
	// Engine is "count", "agent", "batch", "hybrid" or "auto"
	// ("" = "auto", resolved per cell).
	Engine string `json:"engine,omitempty"`
	// Seed is the per-cell ensemble base seed; 0 derives one per cell
	// from the cell's canonical identity, so every cell is bit-identical
	// to the standalone seedless experiment (and its replicate 0 to the
	// seedless job) with the same spec.
	Seed uint64 `json:"seed,omitempty"`
	// MaxParallelTime caps each replicate, in parallel time units
	// (clamped like jobs).
	MaxParallelTime float64 `json:"maxParallelTime,omitempty"`
	// Replicates is the per-cell ensemble size (required, 1 ≤ R ≤ the
	// server's max-replicates limit).
	Replicates int `json:"replicates"`
	// CI, when positive, lets each cell stop early once the relative 95%
	// CI half-width of its mean time is ≤ CI.
	CI float64 `json:"ci,omitempty"`
	// MinReplicates is the per-cell early-stop floor (0 = 16; ignored
	// without CI).
	MinReplicates int `json:"minReplicates,omitempty"`
}

// key renders the canonical sweep cache key. Call only on canonicalized
// specs.
func (s SweepSpec) key() string {
	ns := make([]string, len(s.Ns))
	for i, n := range s.Ns {
		ns[i] = fmt.Sprint(n)
	}
	ms := make([]string, len(s.Ms))
	for i, m := range s.Ms {
		ms[i] = fmt.Sprint(m)
	}
	return fmt.Sprintf("sweep %s ns=%s ms=%s engine=%s seed=%d maxpt=%g r=%d ci=%g min=%d",
		strings.Join(s.Protocols, ","), strings.Join(ns, ","), strings.Join(ms, ","),
		s.Engine, s.Seed, s.MaxParallelTime, s.Replicates, s.CI, s.MinReplicates)
}

// SweepCell is the JSON rendering of one grid point's state.
type SweepCell struct {
	Index    int    `json:"index"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	M        int    `json:"m,omitempty"`
	// Engine is the resolved concrete engine the cell runs on.
	Engine string `json:"engine"`
	// Seed is the cell's ensemble base seed (derived per cell when the
	// sweep's seed was 0).
	Seed uint64 `json:"seed"`
	// ExperimentID is the id of the equivalent standalone experiment:
	// the cell's result is indexed and persisted under it, so it can be
	// fetched (and was perhaps served from) /v1/experiments/{id}.
	ExperimentID string `json:"experimentId"`
	State        State  `json:"state"`
	// Source reports where a finished cell's aggregates came from:
	// "run" (simulated by this sweep), "cache" (an identical finished
	// experiment was already in memory), "joined" (an identical
	// experiment was in flight and the sweep waited for it), or "store"
	// (restored from the durable store).
	Source     string               `json:"source,omitempty"`
	Aggregates *ensemble.Aggregates `json:"aggregates,omitempty"`
	// Distribution reports where a simulated cell's replicate ranges
	// executed (cells served from cache/store carry the original run's
	// placement when it is still known). Operational metadata only — the
	// aggregates are bit-identical however the ranges were placed.
	Distribution *cluster.Distribution `json:"distribution,omitempty"`
}

// sweepData is the persisted payload of a finished sweep.
type sweepData struct {
	Cells   []SweepCell    `json:"cells"`
	Summary *sweep.Summary `json:"summary,omitempty"`
}

// Sweep is one managed parameter sweep: the generic run core plus the
// grid state. All exported methods are safe for concurrent use.
type Sweep struct {
	*runcore.Run[SweepCell]

	spec  SweepSpec // canonicalized
	cells []sweepCellPlan

	// Guarded by the embedded Run's lock.
	views      []SweepCell // per-cell state, the stream's replay
	summary    *sweep.Summary
	wallMillis int64
}

// sweepCellPlan is the execution plan of one cell: its grid identity
// plus the canonical experiment it is equivalent to.
type sweepCellPlan struct {
	cell    sweep.Cell
	expSpec ExperimentSpec // canonical
	espec   ensemble.Spec
	key     string
	id      string
}

// SweepView is the JSON rendering of a sweep's current state.
type SweepView struct {
	ID    string    `json:"id"`
	State State     `json:"state"`
	Spec  SweepSpec `json:"spec"`
	Error string    `json:"error,omitempty"`
	// Cells is the grid in cell order, each with its lifecycle state and
	// (once finished) aggregates.
	Cells []SweepCell `json:"cells"`
	// Summary is the scaling summary: per-(protocol, m) fitted
	// a·lg n + b curves with R² and the log-log exponent — present once
	// the sweep is done.
	Summary    *sweep.Summary `json:"summary,omitempty"`
	Restored   bool           `json:"restored,omitempty"`
	Created    time.Time      `json:"created"`
	Started    *time.Time     `json:"started,omitempty"`
	Finished   *time.Time     `json:"finished,omitempty"`
	WallMillis int64          `json:"wallMillis,omitempty"`
}

// View renders the sweep for JSON responses.
func (s *Sweep) View() SweepView {
	meta := s.Meta()
	v := SweepView{
		ID:       s.ID,
		State:    meta.State,
		Spec:     s.spec,
		Error:    meta.Err,
		Restored: meta.Restored,
		Created:  meta.Created,
		Started:  meta.Started,
		Finished: meta.Finished,
	}
	s.Locked(func() {
		v.Cells = append([]SweepCell(nil), s.views...)
		v.Summary = s.summary
		v.WallMillis = s.wallMillis
	})
	return v
}

// Summary returns the scaling summary, or nil while the sweep is not
// done.
func (s *Sweep) Summary() *sweep.Summary {
	var sum *sweep.Summary
	s.Locked(func() { sum = s.summary })
	return sum
}

// Cells returns the per-cell states in cell order.
func (s *Sweep) Cells() []SweepCell {
	var cells []SweepCell
	s.Locked(func() { cells = append([]SweepCell(nil), s.views...) })
	return cells
}

// Subscribe returns the per-cell states so far plus a channel of
// subsequent cell updates; the channel is closed when the sweep
// finishes, mirroring Job.Subscribe's discipline.
func (s *Sweep) Subscribe() (replay []SweepCell, live <-chan SweepCell, cancel func()) {
	live, cancel = s.Run.Subscribe(256, func() {
		replay = append([]SweepCell(nil), s.views...)
	})
	return replay, live, cancel
}

// updateCell stores a cell's new state and fans it out.
func (s *Sweep) updateCell(c SweepCell) {
	s.Publish(c, func() { s.views[c.Index] = c })
}

// CanonicalizeSweep resolves a SweepSpec's defaults, expands and
// validates its grid against the registry and the manager's limits, and
// returns the canonical spec with its cell plans. Errors wrap
// registry.ErrBadSpec.
func (m *Manager) CanonicalizeSweep(spec SweepSpec) (SweepSpec, []sweepCellPlan, error) {
	if spec.Engine == "" {
		spec.Engine = pp.EngineAuto.String()
	}
	engine, err := pp.ParseEngine(spec.Engine)
	if err != nil {
		return SweepSpec{}, nil, fmt.Errorf("%w: %v", registry.ErrBadSpec, err)
	}
	canon, cells, err := sweep.Canonicalize(sweep.Spec{
		Protocols:       spec.Protocols,
		Ns:              spec.Ns,
		Ms:              spec.Ms,
		Engine:          engine,
		Seed:            spec.Seed,
		Replicates:      spec.Replicates,
		CITarget:        spec.CI,
		MinReplicates:   spec.MinReplicates,
		MaxParallelTime: spec.MaxParallelTime,
		ObsCap:          m.opts.MaxSnapshots,
	})
	if err != nil {
		return SweepSpec{}, nil, err
	}
	if len(cells) > m.opts.MaxSweepCells {
		return SweepSpec{}, nil, fmt.Errorf(
			"%w: sweep expands to %d cells, over this server's limit of %d",
			registry.ErrBadSpec, len(cells), m.opts.MaxSweepCells)
	}
	spec.Protocols = canon.Protocols
	spec.Ns = canon.Ns
	spec.Ms = canon.Ms

	// Re-canonicalize every cell as the standalone experiment it is
	// equivalent to: that applies the per-engine population limits and
	// the replicate limit, and yields the canonical experiment key/id the
	// cell's result is cached, deduplicated and persisted under.
	plans := make([]sweepCellPlan, len(cells))
	for i, cell := range cells {
		expSpec, espec, err := m.CanonicalizeExperiment(ExperimentSpec{
			Protocol:        cell.Protocol,
			N:               cell.N,
			Engine:          cell.Engine.String(),
			Seed:            spec.Seed, // 0 stays 0: the derivation is per cell
			M:               cell.M,
			MaxParallelTime: spec.MaxParallelTime,
			Replicates:      spec.Replicates,
			CI:              spec.CI,
			MinReplicates:   spec.MinReplicates,
		})
		if err != nil {
			return SweepSpec{}, nil, fmt.Errorf("cell %s n=%d m=%d: %w", cell.Protocol, cell.N, cell.M, err)
		}
		key := expSpec.key()
		plans[i] = sweepCellPlan{
			cell:    cell,
			expSpec: expSpec,
			espec:   espec,
			key:     key,
			id:      runID("e", key),
		}
	}
	return spec, plans, nil
}

// SubmitSweep canonicalizes spec and returns the sweep serving it: a
// cached finished one (cached = true, possibly restored from the
// durable store), an identical one already in flight, or a freshly
// queued one. It fails with ErrBusy when the sweep queue is full and an
// error wrapping registry.ErrBadSpec when the spec is invalid.
func (m *Manager) SubmitSweep(spec SweepSpec) (sw *Sweep, cached bool, err error) {
	canon, plans, err := m.CanonicalizeSweep(spec)
	if err != nil {
		return nil, false, err
	}
	key := canon.key()
	s, outcome, err := m.sweeps.Submit(key, runID("s", key), m.decodeSweep,
		func() (*Sweep, error) {
			s := newSweep(runcore.NewRun[SweepCell](runID("s", key)), canon, plans)
			if err := m.sweepClass.Enqueue(func() { m.runSweep(s) }); err != nil {
				s.Cancel()
				return nil, err
			}
			return s, nil
		})
	if err != nil {
		return nil, false, err
	}
	return s, outcome.Cached(), nil
}

// newSweep assembles a sweep with every cell queued.
func newSweep(run *runcore.Run[SweepCell], spec SweepSpec, plans []sweepCellPlan) *Sweep {
	s := &Sweep{Run: run, spec: spec, cells: plans}
	s.views = make([]SweepCell, len(plans))
	for i, p := range plans {
		s.views[i] = SweepCell{
			Index:        i,
			Protocol:     p.cell.Protocol,
			N:            p.cell.N,
			M:            p.cell.M,
			Engine:       p.cell.Engine.String(),
			Seed:         p.espec.Registry.Seed,
			ExperimentID: p.id,
			State:        StateQueued,
		}
	}
	return s
}

// GetSweep returns the sweep with the given id, restoring it from the
// durable store if it is no longer indexed in memory.
func (m *Manager) GetSweep(id string) (*Sweep, bool) {
	return m.sweeps.Get(id, m.decodeSweep)
}

// CancelSweep requests cancellation of the sweep with the given id,
// reporting whether it exists. Cancellation cascades: the in-flight
// cell's ensemble runs under the sweep's context, so it stops at its
// next chunk boundary and the remaining cells are never started.
func (m *Manager) CancelSweep(id string) bool {
	return m.sweeps.Cancel(id)
}

// decodeSweep reconstructs a finished sweep from a durable store record
// (the run core's restore-on-miss path).
func (m *Manager) decodeSweep(rec store.Record) (*Sweep, bool) {
	var spec SweepSpec
	var data sweepData
	if json.Unmarshal(rec.Spec, &spec) != nil || json.Unmarshal(rec.Data, &data) != nil {
		return nil, false
	}
	canon, plans, err := m.CanonicalizeSweep(spec)
	if err != nil || canon.key() != rec.Key || len(data.Cells) != len(plans) {
		return nil, false
	}
	s := newSweep(runcore.NewRestoredRun[SweepCell](rec.ID, rec.SavedAt), canon, plans)
	s.views = data.Cells
	s.summary = data.Summary
	return s, true
}

// runSweep executes one sweep to a terminal state. The cell loop is
// sweep.Run — the same executor behind cmd/sweep and the harness's
// Theorem 1 — with the manager's cache-aware runner substituted per
// cell (Options.RunCell): a cell whose identical experiment already
// finished is served from the experiment cache or the durable store,
// and a simulated cell is shared back into both, so sweeps, standalone
// experiments and restarts all see one result per canonical spec.
func (m *Manager) runSweep(s *Sweep) {
	key := s.spec.key()
	if !s.Begin(func() {
		// Runs under the run's lock, atomically with the canceled
		// transition: a subscriber whose channel closes can never observe
		// the canceled sweep with cells still marked queued.
		for i := range s.views {
			if !s.views[i].State.Terminal() {
				s.views[i].State = StateCanceled
			}
		}
	}) {
		m.sweeps.Finish(key, s, StateCanceled, "canceled while queued", nil)
		m.metrics.recordRunState(store.KindSweep, StateCanceled)
		return
	}
	start := time.Now()

	res, err := sweep.Run(s.Context(), m.sweepRunSpec(s.spec), sweep.Options{
		RunCell: func(ctx context.Context, cell sweep.Cell) (ensemble.Aggregates, error) {
			// Expansion is deterministic, so sweep.Run's cells line up
			// index-for-index with the plans canonicalized at submission.
			plan := s.cells[cell.Index]
			view := s.views[cell.Index]
			view.State = StateRunning
			s.updateCell(view)
			agg, source, dist, err := m.runSweepCell(ctx, plan, func(partial ensemble.Aggregates) {
				v := view
				v.Aggregates = &partial
				s.updateCell(v)
			})
			switch {
			case err == nil:
				view.State = StateDone
				view.Source = source
				view.Aggregates = &agg
				view.Distribution = dist
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				view.State = StateCanceled
			default:
				view.State = StateFailed
			}
			s.updateCell(view)
			return agg, err
		},
	})
	wall := time.Since(start).Milliseconds()
	switch {
	case err == nil:
		summary := res.Summary
		m.sweeps.Finish(key, s, StateDone, "", func() {
			s.summary = &summary
			s.wallMillis = wall
		})
		m.metrics.recordRunState(store.KindSweep, StateDone)
		var data sweepData
		s.Locked(func() {
			data = sweepData{Cells: append([]SweepCell(nil), s.views...), Summary: s.summary}
		})
		m.core.Persist(store.KindSweep, key, s.ID, s.spec, data)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.cancelCells(0)
		m.sweeps.Finish(key, s, StateCanceled, "canceled", func() { s.wallMillis = wall })
		m.metrics.recordRunState(store.KindSweep, StateCanceled)
	default:
		s.cancelCells(0)
		m.sweeps.Finish(key, s, StateFailed, err.Error(), func() { s.wallMillis = wall })
		m.metrics.recordRunState(store.KindSweep, StateFailed)
	}
}

// sweepRunSpec converts a canonical wire spec back into the sweep
// package's spec. The canonical spec already validated, so the engine
// parses; expansion in sweep.Run reproduces the submission's cell order
// exactly.
func (m *Manager) sweepRunSpec(spec SweepSpec) sweep.Spec {
	engine, err := pp.ParseEngine(spec.Engine)
	if err != nil {
		engine = pp.EngineAuto // unreachable for canonical specs
	}
	return sweep.Spec{
		Protocols:       spec.Protocols,
		Ns:              spec.Ns,
		Ms:              spec.Ms,
		Engine:          engine,
		Seed:            spec.Seed,
		Replicates:      spec.Replicates,
		CITarget:        spec.CI,
		MinReplicates:   spec.MinReplicates,
		MaxParallelTime: spec.MaxParallelTime,
		ObsCap:          m.opts.MaxSnapshots,
	}
}

// cancelCells marks every cell from index from on as canceled (cells
// already terminal keep their state).
func (s *Sweep) cancelCells(from int) {
	for i := from; i < len(s.views); i++ {
		v := s.views[i]
		if v.State.Terminal() {
			continue
		}
		v.State = StateCanceled
		s.updateCell(v)
	}
}

// runSweepCell produces one cell's aggregates: from the in-memory
// experiment cache if an identical finished experiment exists, by
// waiting on an identical experiment already in flight (the result is
// deterministic, so racing a duplicate simulation would only burn CPU),
// from the durable store if a record survives there, and by running the
// ensemble under the sweep's context otherwise — in which case the
// result is indexed as a finished experiment and persisted, exactly as
// if it had arrived through POST /v1/experiments.
func (m *Manager) runSweepCell(ctx context.Context, plan sweepCellPlan, onUpdate func(ensemble.Aggregates)) (ensemble.Aggregates, string, *cluster.Distribution, error) {
	if e, ok := m.exps.Lookup(plan.key); ok && e.State() == StateDone {
		if agg := e.Aggregates(); agg != nil {
			return *agg, "cache", e.Distribution(), nil
		}
	}
	if e, ok := m.exps.Get(plan.id, nil); ok && !e.State().Terminal() {
		select {
		case <-e.Done():
			if e.State() == StateDone {
				if agg := e.Aggregates(); agg != nil {
					return *agg, "joined", e.Distribution(), nil
				}
			}
			// The in-flight experiment was canceled or failed — neither is
			// the spec's deterministic outcome; fall through and simulate.
		case <-ctx.Done():
			return ensemble.Aggregates{}, "", nil, ctx.Err()
		}
	}
	if m.core.Store != nil {
		if rec, ok := m.core.Store.Get(store.KindExperiment, plan.key); ok {
			if e, ok := m.decodeExperiment(rec); ok {
				if agg := e.Aggregates(); agg != nil {
					return *agg, "store", nil, nil
				}
			}
		}
	}
	start := time.Now()
	agg, dist, err := m.runEnsemble(ctx, plan.espec, onUpdate)
	if err != nil {
		return ensemble.Aggregates{}, "", nil, err
	}
	wall := time.Since(start)
	m.metrics.recordEngineRun(plan.expSpec.Engine, ensembleInteractions(agg), wall)
	// File the cell as a finished experiment, so a later POST
	// /v1/experiments of the same spec is a cache hit.
	e := &Experiment{Run: runcore.NewRun[ensemble.Aggregates](plan.id), spec: plan.expSpec, espec: plan.espec}
	m.exps.Finish(plan.key, e, StateDone, "", func() {
		e.agg = &agg
		e.dist = dist
		e.wallMillis = wall.Milliseconds()
	})
	m.core.Persist(store.KindExperiment, plan.key, plan.id, plan.expSpec, agg)
	return agg, "run", dist, nil
}
