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
	// the cell runs as that experiment, so it can be fetched (and was
	// perhaps served from) /v1/experiments/{id}, while it runs too.
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

	spec  SweepSpec  // canonicalized
	run   sweep.Spec // the canonical sweep.Spec sweep.Run executes
	cells []sweepCellPlan

	// Guarded by the embedded Run's lock.
	views      []SweepCell // per-cell state, the stream's replay
	summary    *sweep.Summary
	wallMillis int64
}

// sweepCellPlan is the execution plan of one cell: its grid identity
// and canonical ensemble spec plus the standalone experiment it is.
type sweepCellPlan struct {
	cell    sweep.Cell
	expSpec ExperimentSpec // canonical
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

// CanonicalizeSweep resolves a SweepSpec's wire default (engine "" =
// "auto", resolved per cell), expands and validates its grid through
// sweep.Canonicalize, and applies the manager's limits. It returns the
// canonical wire spec, the canonical sweep.Spec the sweep runs, and the
// cell plans. Errors wrap registry.ErrBadSpec.
func (m *Manager) CanonicalizeSweep(spec SweepSpec) (SweepSpec, sweep.Spec, []sweepCellPlan, error) {
	if spec.Engine == "" {
		spec.Engine = pp.EngineAuto.String()
	}
	engine, err := pp.ParseEngine(spec.Engine)
	if err != nil {
		return SweepSpec{}, sweep.Spec{}, nil, fmt.Errorf("%w: %v", registry.ErrBadSpec, err)
	}
	run, cells, err := sweep.Canonicalize(sweep.Spec{
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
		return SweepSpec{}, sweep.Spec{}, nil, err
	}
	if len(cells) > m.opts.MaxSweepCells {
		return SweepSpec{}, sweep.Spec{}, nil, fmt.Errorf(
			"%w: sweep expands to %d cells, over this server's limit of %d",
			registry.ErrBadSpec, len(cells), m.opts.MaxSweepCells)
	}
	spec.Protocols = run.Protocols
	spec.Ns = run.Ns
	spec.Ms = run.Ms

	// Every cell's ensemble spec is already canonical, resolved exactly as
	// the standalone experiment over the cell's spec: the cell's result is
	// cached, deduplicated and persisted under that experiment's key/id.
	plans := make([]sweepCellPlan, len(cells))
	for i, cell := range cells {
		if err := m.checkLimits(cell.Ensemble); err != nil {
			return SweepSpec{}, sweep.Spec{}, nil, fmt.Errorf("cell %s n=%d m=%d: %w", cell.Protocol, cell.N, cell.M, err)
		}
		expSpec := experimentSpec(cell.Ensemble, spec.MaxParallelTime)
		plans[i] = sweepCellPlan{cell: cell, expSpec: expSpec, id: runID("e", expSpec.key())}
	}
	return spec, run, plans, nil
}

// SubmitSweep canonicalizes spec and returns the sweep serving it: a
// cached finished one (cached = true, possibly restored from the
// durable store), an identical one already in flight, or a freshly
// queued one. It fails with ErrBusy when the sweep queue is full and an
// error wrapping registry.ErrBadSpec when the spec is invalid.
func (m *Manager) SubmitSweep(spec SweepSpec) (sw *Sweep, cached bool, err error) {
	canon, run, plans, err := m.CanonicalizeSweep(spec)
	if err != nil {
		return nil, false, err
	}
	key := canon.key()
	s, outcome, err := m.sweeps.Submit(key, runID("s", key), m.decodeSweep,
		func() (*Sweep, error) {
			s := newSweep(runcore.NewRun[SweepCell](runID("s", key)), canon, run, plans)
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
func newSweep(rc *runcore.Run[SweepCell], spec SweepSpec, run sweep.Spec, plans []sweepCellPlan) *Sweep {
	s := &Sweep{Run: rc, spec: spec, run: run, cells: plans}
	s.views = make([]SweepCell, len(plans))
	for i, p := range plans {
		s.views[i] = SweepCell{
			Index:        i,
			Protocol:     p.cell.Protocol,
			N:            p.cell.N,
			M:            p.cell.M,
			Engine:       p.cell.Engine.String(),
			Seed:         p.cell.Ensemble.Registry.Seed,
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
// reporting whether it exists. Cancellation cascades: the sweep's
// context cancels the experiment of the cell it is running, which stops
// at its next chunk boundary, and the remaining cells are never started.
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
	canon, run, plans, err := m.CanonicalizeSweep(spec)
	if err != nil || canon.key() != rec.Key || len(data.Cells) != len(plans) {
		return nil, false
	}
	s := newSweep(runcore.NewRestoredRun[SweepCell](rec.ID, rec.SavedAt), canon, run, plans)
	s.views = data.Cells
	s.summary = data.Summary
	return s, true
}

// runSweep executes one sweep to a terminal state. The cell loop is
// sweep.Run — the same executor behind cmd/sweep — with each cell
// substituted (Options.RunCell) by the standalone experiment over its
// spec, submitted through the experiment index: sweeps, standalone
// experiments and restarts all see one run and one result per canonical
// spec.
func (m *Manager) runSweep(s *Sweep) {
	m.sweeps.Execute(s.spec.key(), s, s.spec, s.cancelUnfinished, func(ctx context.Context) (func(), any, error) {
		start := time.Now()
		res, err := sweep.Run(ctx, s.run, sweep.Options{
			RunCell: func(ctx context.Context, cell sweep.Cell) (ensemble.Aggregates, error) {
				// Expansion is deterministic, so sweep.Run's cells line up
				// index-for-index with the plans canonicalized at submission.
				view := s.views[cell.Index]
				view.State = StateRunning
				s.updateCell(view)
				e, outcome, err := m.cellExperiment(ctx, s.cells[cell.Index], func(partial ensemble.Aggregates) {
					v := view
					v.Aggregates = &partial
					s.updateCell(v)
				})
				view.State, _ = runcore.Settled(err)
				if err != nil {
					s.updateCell(view)
					return ensemble.Aggregates{}, err
				}
				view.Source = cellSources[outcome]
				view.Aggregates = e.Aggregates()
				view.Distribution = e.Distribution()
				s.updateCell(view)
				return *view.Aggregates, nil
			},
		})
		wall := time.Since(start).Milliseconds()
		if err != nil {
			return func() { s.wallMillis = wall }, nil, err
		}
		summary := res.Summary
		var data sweepData
		s.Locked(func() {
			data = sweepData{Cells: append([]SweepCell(nil), s.views...), Summary: &summary}
		})
		return func() {
			s.summary = &summary
			s.wallMillis = wall
		}, data, nil
	})
}

// cancelUnfinished marks every cell not yet terminal canceled. It runs
// under the sweep's lock, in any terminal transition but done.
func (s *Sweep) cancelUnfinished() {
	for i := range s.views {
		if !s.views[i].State.Terminal() {
			s.views[i].State = StateCanceled
		}
	}
}

// cellSources names where a finished cell's aggregates came from, by
// the outcome of its experiment's submission.
var cellSources = map[runcore.Outcome]string{
	runcore.OutcomeNew:      "run",
	runcore.OutcomeHit:      "cache",
	runcore.OutcomeJoined:   "joined",
	runcore.OutcomeRestored: "store",
}

// cellExperiment returns the done experiment a cell adopts, through the
// one submission path: from the experiment cache, the durable store, an
// identical experiment in flight (which the cell waits for), or fresh —
// which the sweep's worker then runs inline, canceled by the sweep's
// context. A fresh cell is thus an ordinary experiment from its first
// moment: fetchable by its id, joinable by a standalone submission, and
// filed and persisted when done. An experiment that ends failed fails
// the cell; a joined one that ends canceled is submitted once more
// (Submit evicts canceled runs).
func (m *Manager) cellExperiment(ctx context.Context, plan sweepCellPlan, observe func(ensemble.Aggregates)) (*Experiment, runcore.Outcome, error) {
	for attempt := 0; ; attempt++ {
		e, outcome, err := m.submitExperiment(plan.expSpec, plan.cell.Ensemble, false)
		if err != nil {
			// Only a closing manager refuses a cell, and closing cancels
			// every run: the cell is canceled, not failed.
			return nil, outcome, fmt.Errorf("%w: %w", err, context.Canceled)
		}
		if outcome == runcore.OutcomeNew {
			stop := context.AfterFunc(ctx, e.Cancel)
			m.runExperiment(e, func(agg ensemble.Aggregates) {
				e.update(agg)
				observe(agg)
			})
			stop()
		} else {
			select {
			case <-e.Done():
			case <-ctx.Done():
				return nil, outcome, ctx.Err()
			}
		}
		switch meta := e.Meta(); {
		case meta.State == StateDone:
			return e, outcome, nil
		case meta.State == StateFailed:
			return nil, outcome, errors.New(meta.Err)
		case ctx.Err() != nil:
			return nil, outcome, ctx.Err()
		case outcome != runcore.OutcomeJoined || attempt > 0:
			return nil, outcome, fmt.Errorf("experiment %s canceled: %w", e.ID, context.Canceled)
		}
	}
}
