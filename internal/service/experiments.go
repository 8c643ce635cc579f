package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"popproto/internal/cluster"
	"popproto/internal/ensemble"
	"popproto/internal/service/runcore"
	"popproto/internal/store"
)

// ExperimentSpec is the wire-format experiment description (the POST
// /v1/experiments body): a job spec replicated Replicates times, with
// optional CI-targeted early stopping. Zero values resolve like JobSpec's
// (engine "" = count, seed 0 = derived) — and because the seed derivation
// and the replicate-0 seed are shared with single jobs, an experiment's
// replicate 0 is bit-identical to the job with the same spec.
type ExperimentSpec struct {
	// Protocol is a registry key (GET /v1/protocols lists them).
	Protocol string `json:"protocol"`
	// N is the population size.
	N int `json:"n"`
	// Engine is "count", "agent", "batch", "hybrid" or "auto"
	// ("" = "count").
	Engine string `json:"engine,omitempty"`
	// Seed is the ensemble's base seed; replicate r runs with
	// ensemble.ReplicateSeed(seed, r). 0 derives the base seed from the
	// canonical spec.
	Seed uint64 `json:"seed,omitempty"`
	// M is the PLL knowledge parameter (0 = canonical ⌈lg n⌉).
	M int `json:"m,omitempty"`
	// MaxParallelTime caps each replicate, in parallel time units (0 =
	// the protocol's registry default budget; larger values are clamped).
	MaxParallelTime float64 `json:"maxParallelTime,omitempty"`
	// Replicates is the ensemble size R (required, 1 ≤ R ≤ the server's
	// max-replicates limit).
	Replicates int `json:"replicates"`
	// CI, when positive, enables early stopping: the ensemble stops once
	// the relative 95% CI half-width of the mean parallel time is ≤ CI
	// (after MinReplicates replicates). Must be < 1.
	CI float64 `json:"ci,omitempty"`
	// MinReplicates is the early-stop floor (0 = 16; canonicalized to 0
	// without CI).
	MinReplicates int `json:"minReplicates,omitempty"`
}

// jobPart projects the experiment's shared fields onto a JobSpec: an
// experiment resolves exactly as the single job over the same spec does
// (Manager.resolve), and its key extends that job's key.
func (s ExperimentSpec) jobPart() JobSpec {
	return JobSpec{
		Protocol:        s.Protocol,
		N:               s.N,
		Engine:          s.Engine,
		Seed:            s.Seed,
		M:               s.M,
		MaxParallelTime: s.MaxParallelTime,
	}
}

// experimentSpec renders the canonical wire spec of a canonical ensemble
// spec. maxParallelTime is the requested cap, which the key carries as
// given (Entry.Budget resolves it into e.Budget).
func experimentSpec(e ensemble.Spec, maxParallelTime float64) ExperimentSpec {
	return ExperimentSpec{
		Protocol:        e.Registry.Protocol,
		N:               e.Registry.N,
		Engine:          e.Registry.Engine.String(),
		Seed:            e.Registry.Seed,
		M:               e.Registry.M,
		MaxParallelTime: maxParallelTime,
		Replicates:      e.Replicates,
		CI:              e.CITarget,
		MinReplicates:   e.MinReplicates,
	}
}

// key renders the canonical experiment cache key. Call only on
// canonicalized specs.
func (s ExperimentSpec) key() string {
	return fmt.Sprintf("%s r=%d ci=%g min=%d", s.jobPart().key(), s.Replicates, s.CI, s.MinReplicates)
}

// Experiment is one managed ensemble: the generic run core plus the
// experiment's spec and latest aggregates. All exported methods are
// safe for concurrent use.
type Experiment struct {
	*runcore.Run[ensemble.Aggregates]

	spec  ExperimentSpec // canonicalized
	espec ensemble.Spec  // resolved ensemble spec (budget, seeds)

	// Guarded by the embedded Run's lock.
	agg        *ensemble.Aggregates  // latest streamed (or final) aggregates
	dist       *cluster.Distribution // where the ranges executed (done only)
	wallMillis int64
}

// ExperimentView is the JSON rendering of an experiment's current state.
type ExperimentView struct {
	ID          string         `json:"id"`
	State       State          `json:"state"`
	Spec        ExperimentSpec `json:"spec"`
	BudgetSteps uint64         `json:"budgetSteps"`
	Error       string         `json:"error,omitempty"`
	// Aggregates is the streaming summary: present (and growing) while
	// the ensemble runs, final once done.
	Aggregates *ensemble.Aggregates `json:"aggregates,omitempty"`
	// Distribution reports where the ensemble's replicate ranges executed
	// (local vs cluster workers) once the experiment is done. It is
	// operational metadata: the aggregates are bit-identical either way,
	// and restored experiments omit it.
	Distribution *cluster.Distribution `json:"distribution,omitempty"`
	// Restored marks an experiment served from the durable store after a
	// restart.
	Restored   bool       `json:"restored,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	WallMillis int64      `json:"wallMillis,omitempty"`
}

// Aggregates returns the latest aggregates, or nil before the first
// replicate lands.
func (e *Experiment) Aggregates() *ensemble.Aggregates {
	var agg *ensemble.Aggregates
	e.Locked(func() { agg = e.agg })
	return agg
}

// Distribution returns where the experiment's ranges executed, or nil
// before completion (and for experiments restored from the store, where
// the placement of the original run is not retained).
func (e *Experiment) Distribution() *cluster.Distribution {
	var d *cluster.Distribution
	e.Locked(func() { d = e.dist })
	return d
}

// View renders the experiment for JSON responses.
func (e *Experiment) View() ExperimentView {
	meta := e.Meta()
	v := ExperimentView{
		ID:          e.ID,
		State:       meta.State,
		Spec:        e.spec,
		BudgetSteps: e.espec.Budget,
		Error:       meta.Err,
		Restored:    meta.Restored,
		Created:     meta.Created,
		Started:     meta.Started,
		Finished:    meta.Finished,
	}
	e.Locked(func() {
		v.Aggregates = e.agg
		v.Distribution = e.dist
		v.WallMillis = e.wallMillis
	})
	return v
}

// Subscribe returns the latest aggregates (nil before any) plus a channel
// of subsequent aggregate updates; the channel is closed when the
// experiment finishes. The returned cancel stops delivery without closing
// the channel (only completion closes it), mirroring Job.Subscribe.
func (e *Experiment) Subscribe() (latest *ensemble.Aggregates, live <-chan ensemble.Aggregates, cancel func()) {
	live, cancel = e.Run.Subscribe(64, func() { latest = e.agg })
	return latest, live, cancel
}

// update stores the latest aggregates and fans them out to subscribers
// without blocking the ensemble (slow subscribers miss intermediate
// updates rather than stalling the replication).
func (e *Experiment) update(agg ensemble.Aggregates) {
	cp := agg
	e.Publish(agg, func() { e.agg = &cp })
}

// CanonicalizeExperiment resolves an ExperimentSpec through
// ensemble.Canonicalize (with the server's defaults and limits, see
// Manager.resolve), returning the canonical spec and the resolved
// ensemble spec. Errors wrap registry.ErrBadSpec.
func (m *Manager) CanonicalizeExperiment(spec ExperimentSpec) (ExperimentSpec, ensemble.Spec, error) {
	espec, _, err := m.resolve(spec.jobPart(), ensemble.Spec{
		Replicates:    spec.Replicates,
		CITarget:      spec.CI,
		MinReplicates: spec.MinReplicates,
	})
	if err != nil {
		return ExperimentSpec{}, ensemble.Spec{}, err
	}
	return experimentSpec(espec, spec.MaxParallelTime), espec, nil
}

// SubmitExperiment canonicalizes spec and returns the experiment serving
// it: a cached finished one (cached = true, possibly restored from the
// durable store), an identical one already in flight, or a freshly
// queued one. It fails with ErrBusy when the experiment queue is full
// and an error wrapping registry.ErrBadSpec when the spec is invalid.
func (m *Manager) SubmitExperiment(spec ExperimentSpec) (exp *Experiment, cached bool, err error) {
	canon, espec, err := m.CanonicalizeExperiment(spec)
	if err != nil {
		return nil, false, err
	}
	e, outcome, err := m.submitExperiment(canon, espec, true)
	if err != nil {
		return nil, false, err
	}
	return e, outcome.Cached(), nil
}

// submitExperiment is the one submission path of a canonical
// experiment, behind POST /v1/experiments and every sweep cell alike.
// Fresh work is enqueued on the experiment class, or — for a sweep cell
// (enqueue false) — left to the caller, which runs it inline.
func (m *Manager) submitExperiment(canon ExperimentSpec, espec ensemble.Spec, enqueue bool) (*Experiment, runcore.Outcome, error) {
	key := canon.key()
	return m.exps.Submit(key, runID("e", key), m.decodeExperiment,
		func() (*Experiment, error) {
			e := &Experiment{
				Run:   runcore.NewRun[ensemble.Aggregates](runID("e", key)),
				spec:  canon,
				espec: espec,
			}
			if !enqueue {
				return e, nil
			}
			if err := m.expClass.Enqueue(func() { m.runExperiment(e, e.update) }); err != nil {
				e.Cancel()
				return nil, err
			}
			return e, nil
		})
}

// GetExperiment returns the experiment with the given id, restoring it
// from the durable store if it is no longer indexed in memory.
func (m *Manager) GetExperiment(id string) (*Experiment, bool) {
	return m.exps.Get(id, m.decodeExperiment)
}

// CancelExperiment requests cancellation of the experiment with the
// given id, reporting whether it exists. Finished experiments are
// unaffected.
func (m *Manager) CancelExperiment(id string) bool {
	return m.exps.Cancel(id)
}

// decodeExperiment reconstructs a finished experiment from a durable
// store record (the run core's restore-on-miss path).
func (m *Manager) decodeExperiment(rec store.Record) (*Experiment, bool) {
	var spec ExperimentSpec
	var agg ensemble.Aggregates
	if json.Unmarshal(rec.Spec, &spec) != nil || json.Unmarshal(rec.Data, &agg) != nil {
		return nil, false
	}
	canon, espec, err := m.CanonicalizeExperiment(spec)
	if err != nil || canon.key() != rec.Key {
		return nil, false
	}
	return &Experiment{
		Run:   runcore.NewRestoredRun[ensemble.Aggregates](rec.ID, rec.SavedAt),
		spec:  canon,
		espec: espec,
		agg:   &agg,
	}, true
}

// runExperiment executes one experiment to a terminal state and indexes
// the outcome. onUpdate streams the aggregates as replicates land:
// e.update, or — for a sweep cell — e.update and the cell's view.
func (m *Manager) runExperiment(e *Experiment, onUpdate func(ensemble.Aggregates)) {
	m.exps.Execute(e.spec.key(), e, e.spec, nil, func(ctx context.Context) (func(), any, error) {
		start := time.Now()
		agg, dist, err := m.runEnsemble(ctx, e.espec, onUpdate)
		wallDur := time.Since(start)
		wall := wallDur.Milliseconds()
		if err != nil {
			return func() { e.wallMillis = wall }, nil, err
		}
		m.metrics.recordEngineRun(e.spec.Engine, ensembleInteractions(agg), wallDur)
		return func() {
			e.agg = &agg
			e.dist = dist
			e.wallMillis = wall
		}, agg, nil
	})
}

// ensembleInteractions approximates an ensemble's total simulated
// interactions (mean steps x incorporated replicates) for the engine
// throughput counters; per-replicate exact counts are not retained.
func ensembleInteractions(agg ensemble.Aggregates) uint64 {
	total := agg.MeanSteps * float64(agg.Replicates)
	if total <= 0 {
		return 0
	}
	return uint64(total)
}
