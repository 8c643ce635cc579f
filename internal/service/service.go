// Package service runs population-protocol simulations as managed work:
// the layer between the protocol registry and the popprotod HTTP server.
//
// Three run kinds share one orchestration core (internal/service/runcore):
//
//   - Jobs: one election described by a JobSpec (protocol, n, engine,
//     seed, knobs), with a census-snapshot trajectory subscribers can
//     stream.
//   - Experiments: parallel Monte-Carlo ensembles of one spec
//     (internal/ensemble) with streaming aggregate updates and optional
//     CI-targeted early stopping. See experiments.go.
//   - Sweeps: parameter grids — a population axis × a protocol axis —
//     whose cells each run as a full ensemble, summarized as fitted
//     a·lg n + b scaling curves. See sweeps.go.
//
// The core owns, once, what the kinds would otherwise duplicate: the
// lifecycle state machine, the bounded-queue worker pool with per-kind
// fairness, the streaming fanout with its close discipline, and the
// canonical-key result cache. Every run is a deterministic function of
// its canonical spec (see the registry's determinism tests), so
// finished work is cached in per-kind LRUs keyed by that spec —
// identical requests are answered without simulating anything — and
// with a durable result store configured (Options.Store) the LRUs are
// caches in front of the store: finished results are appended there and
// served back across restarts before any simulation is scheduled.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"popproto/internal/cluster"
	"popproto/internal/ensemble"
	"popproto/internal/obs"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/service/runcore"
	"popproto/internal/store"
)

// Service-level submission failures, distinguished so the HTTP layer can
// map them to status codes (429/503) separate from spec validation 400s.
// They are the run core's, re-exported at the package boundary callers
// already import.
var (
	// ErrBusy reports a full queue; the caller should retry later.
	ErrBusy = runcore.ErrBusy
	// ErrClosed reports submission to a manager that has been shut down.
	ErrClosed = runcore.ErrClosed
)

// State is a run's lifecycle state (shared by jobs, experiments and
// sweeps).
type State = runcore.State

const (
	StateQueued   = runcore.StateQueued
	StateRunning  = runcore.StateRunning
	StateDone     = runcore.StateDone
	StateFailed   = runcore.StateFailed
	StateCanceled = runcore.StateCanceled
)

// JobSpec is the wire-format job description (the POST /v1/jobs body).
// Zero values are meaningful defaults, resolved by canonicalization:
// engine "" selects the census engine (the only practical one at large n),
// seed 0 derives a seed deterministically from the rest of the spec, and
// maxParallelTime 0 selects the protocol's default step budget.
type JobSpec struct {
	// Protocol is a registry key (GET /v1/protocols lists them).
	Protocol string `json:"protocol"`
	// N is the population size.
	N int `json:"n"`
	// Engine is "count", "agent", "batch", "hybrid" or "auto" ("" = "count";
	// "auto" resolves to the registry's recommendation for the protocol
	// and n at canonicalization time, so the canonical spec — and the
	// cache key and derived seed — always name a concrete engine).
	Engine string `json:"engine,omitempty"`
	// Seed seeds the scheduler; 0 derives one from the canonical spec, so
	// omitting it still yields a deterministic, cacheable job.
	Seed uint64 `json:"seed,omitempty"`
	// M is the PLL knowledge parameter (0 = canonical ⌈lg n⌉; rejected
	// for protocols without an m).
	M int `json:"m,omitempty"`
	// MaxParallelTime caps the run, in parallel time units (0 = the
	// protocol's registry default budget; values beyond that default are
	// clamped to it, so the override can only shorten a run).
	MaxParallelTime float64 `json:"maxParallelTime,omitempty"`
	// Verify, when nonzero, runs that many extra interactions after
	// stabilization and reports whether any output changed.
	Verify uint64 `json:"verify,omitempty"`
}

// key renders the canonical cache key. Call only on canonicalized specs.
func (s JobSpec) key() string {
	return fmt.Sprintf("%s n=%d engine=%s seed=%d m=%d maxpt=%g verify=%d",
		s.Protocol, s.N, s.Engine, s.Seed, s.M, s.MaxParallelTime, s.Verify)
}

// runID derives a public run id from a canonical key, so identical
// specs map to the same id and re-submissions land on the same run.
// The prefix distinguishes the kinds ("j", "e", "s").
func runID(prefix, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%s%016x", prefix, h.Sum64())
}

// censusCap bounds the number of distinct states reported per census in
// results and snapshots; protocols like MaxID have Θ(n) live states and
// would otherwise dominate every payload.
const censusCap = 32

// Snapshot is one point of a job's census trajectory, the schema of the
// trace endpoint's census events. A job records each point once, as a
// compact Frame that renders these bytes when it is streamed.
type Snapshot struct {
	Step         uint64  `json:"step"`
	ParallelTime float64 `json:"parallelTime"`
	Leaders      int     `json:"leaders"`
	// Census holds the censusCap most populous states; OmittedStates and
	// OmittedAgents account for the truncated tail.
	Census        map[string]int `json:"census"`
	OmittedStates int            `json:"omittedStates,omitempty"`
	OmittedAgents int            `json:"omittedAgents,omitempty"`
}

// Result is a finished job's outcome.
type Result struct {
	// Stabilized reports whether the run reached the protocol's target
	// leader count within its step budget.
	Stabilized bool `json:"stabilized"`
	// Leaders is the final leader count (for the epidemic workload: the
	// number of agents never reached).
	Leaders int `json:"leaders"`
	// Steps is the interaction count at which the run ended; when
	// Stabilized it is the exact stabilization step.
	Steps        uint64  `json:"steps"`
	ParallelTime float64 `json:"parallelTime"`
	// LiveStates is the number of distinct states in the final census
	// (before truncation).
	LiveStates    int            `json:"liveStates"`
	Census        map[string]int `json:"census"`
	OmittedStates int            `json:"omittedStates,omitempty"`
	OmittedAgents int            `json:"omittedAgents,omitempty"`
	// Stable is set when the spec requested verification: whether no
	// output changed over the extra interactions.
	Stable *bool `json:"stable,omitempty"`
	// Description is the registry's human description of the protocol
	// instance.
	Description string `json:"description"`
	// Hybrid carries the hybrid engine's controller telemetry — mode
	// occupancy and handovers — and is nil on other engines. Mode
	// decisions are deterministic functions of the chain history, so the
	// telemetry is part of the deterministic surface (cache-safe).
	Hybrid *HybridTelemetry `json:"hybrid,omitempty"`
	// WallMillis is the wall-clock simulation time. It is reported for
	// operators and excluded from the deterministic surface.
	WallMillis int64 `json:"wallMillis"`
	// Distribution reports where the work executed (a single job is
	// always local). Like WallMillis it is operational metadata, outside
	// the deterministic surface.
	Distribution *cluster.Distribution `json:"distribution,omitempty"`
}

// HybridTelemetry is the per-run rendering of the hybrid controller's
// mode occupancy: how the run's interactions partition over the three
// execution modes, and how often the controller switched. The step
// fields sum to the result's Steps. SkipEntries counts the handovers the
// payoff rule took into geometric skip mode; SkipEvents the geometric
// skip events executed there (SkipSteps/SkipEvents is the mean realized
// skip length).
type HybridTelemetry struct {
	RoundSteps    uint64 `json:"roundSteps"`
	InteractSteps uint64 `json:"interactSteps"`
	SkipSteps     uint64 `json:"skipSteps"`
	Handovers     uint64 `json:"handovers"`
	SkipEntries   uint64 `json:"skipEntries"`
	SkipEvents    uint64 `json:"skipEvents"`
}

// Job is one managed simulation: the generic run core plus the job's
// spec, result, and census-trajectory replay state. All exported
// methods are safe for concurrent use.
type Job struct {
	*runcore.Run[Frame]

	spec   JobSpec       // canonicalized
	rspec  registry.Spec // resolved registry spec
	target int
	budget uint64

	// Guarded by the embedded Run's lock (via Locked/Publish/Finish
	// callbacks), which is what keeps the trajectory replay atomic with
	// the fanout.
	result    *Result
	snapshots []Frame
	maxSnaps  int
}

// JobView is the JSON rendering of a job's current state.
type JobView struct {
	ID          string  `json:"id"`
	State       State   `json:"state"`
	Spec        JobSpec `json:"spec"`
	BudgetSteps uint64  `json:"budgetSteps"`
	Error       string  `json:"error,omitempty"`
	Result      *Result `json:"result,omitempty"`
	Snapshots   int     `json:"snapshots"`
	// Restored marks a job served from the durable store after a restart;
	// its result is intact but its census trajectory is not retained.
	Restored bool       `json:"restored,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Result returns the job's result, or nil while it is not done.
func (j *Job) Result() *Result {
	var res *Result
	j.Locked(func() { res = j.result })
	return res
}

// View renders the job for JSON responses.
func (j *Job) View() JobView {
	meta := j.Meta()
	v := JobView{
		ID:          j.ID,
		State:       meta.State,
		Spec:        j.spec,
		BudgetSteps: j.budget,
		Error:       meta.Err,
		Restored:    meta.Restored,
		Created:     meta.Created,
		Started:     meta.Started,
		Finished:    meta.Finished,
	}
	j.Locked(func() {
		v.Result = j.result
		v.Snapshots = len(j.snapshots)
	})
	return v
}

// Subscribe returns the frames recorded so far plus a channel of
// subsequent ones; the channel is closed when the job finishes. For a
// finished job the replay holds the full stored trajectory and the channel
// is already closed. Frames are records, not wire bytes: the consumer
// renders each with Frame.AppendJSON, on its own goroutine, while the
// worker goes on recording. The returned cancel function stops delivery
// (it does NOT close the channel — only job completion does); it is safe
// to call more than once. A consumer that cancels early must stop reading
// on its own signal, as the HTTP trace handler does via the request
// context.
func (j *Job) Subscribe() (replay []Frame, live <-chan Frame, cancel func()) {
	live, cancel = j.Run.Subscribe(256, func() {
		replay = append([]Frame(nil), j.snapshots...)
	})
	return replay, live, cancel
}

// record appends a census frame and fans it out to subscribers without
// blocking the simulation (slow subscribers miss snapshots rather than
// stalling the run). When the stored trajectory exceeds its cap it is
// decimated — every other point dropped — keeping it bounded and
// logarithmically spaced for long runs; the matching cadence doubling
// lives in ensemble.Drive's chunk schedule, which runJob advances the
// simulation with.
func (j *Job) record(frame Frame) {
	j.Publish(frame, func() {
		j.snapshots = append(j.snapshots, frame)
		if len(j.snapshots) > j.maxSnaps {
			kept := j.snapshots[:0]
			for i := 0; i < len(j.snapshots); i += 2 {
				kept = append(kept, j.snapshots[i])
			}
			j.snapshots = kept
		}
	})
}

// settle trims the trajectory to its length, so a finished job retains
// no spare frames. Each frame already shares its state table's quoted
// names.
func (j *Job) settle() {
	j.Locked(func() { j.snapshots = slices.Clone(j.snapshots) })
}

func (j *Job) snapshotCount() int {
	var n int
	j.Locked(func() { n = len(j.snapshots) })
	return n
}

func (j *Job) lastSnapshotStep() uint64 {
	var step uint64
	j.Locked(func() {
		if len(j.snapshots) > 0 {
			step = j.snapshots[len(j.snapshots)-1].Step
		}
	})
	return step
}

// Options configures a Manager. Zero values select the documented
// defaults.
type Options struct {
	// Workers is the simulation worker-pool size (default NumCPU, capped
	// at 8: jobs are single-threaded and memory-bound, not I/O-bound).
	Workers int
	// CacheSize is the finished-work LRU capacity, per kind (default 256).
	CacheSize int
	// QueueSize bounds the number of queued-but-not-running runs, per
	// kind; beyond it submission returns ErrBusy (default 256).
	QueueSize int
	// MaxN bounds accepted population sizes on the census engine
	// (default 200 million, ~50% above the largest benchmarked
	// population; the census engine's memory is Θ(live states), not
	// Θ(n), so huge n is safe there).
	MaxN int
	// MaxNAgent bounds population sizes on the per-agent engine, whose
	// memory is Θ(n) — 2 B per agent plus the state table, or one state
	// value per agent once a state-hungry run spills — and whose work is
	// n interactions per unit of parallel time, one at a time (default
	// 10 million — beyond that a single job would hold a worker for
	// hours).
	MaxNAgent int
	// MaxNBatch bounds population sizes on the batch and hybrid engines.
	// Like the census engine their memory is Θ(live states), and
	// collision-free rounds make them the fastest engines at large n: a
	// full n=10⁹ PLL election holds ~2 MiB of census and finishes in
	// minutes. The default is 2 billion — twice the largest benchmarked
	// population — unless MaxN is set explicitly, in which case it
	// bounds these engines too.
	MaxNBatch int
	// MaxSnapshots bounds each job's stored trajectory (default 256). It
	// is also the observation cap of the deterministic drive schedule
	// (ensemble.Drive), so it is part of results' deterministic surface:
	// change it and cached results for chunk-sensitive engines change.
	MaxSnapshots int
	// Store, when non-nil, persists finished jobs, experiments and
	// sweeps and serves them back across restarts; the LRUs then cache
	// in front of it instead of being the only copy.
	Store *store.Store
	// ExperimentWorkers bounds concurrently *running* experiments
	// (default 1). Each running experiment fans its replicates over up to
	// Workers simulation goroutines of its own, so the total simulation
	// parallelism is roughly Workers × (1 + ExperimentWorkers + SweepWorkers).
	ExperimentWorkers int
	// MaxReplicates bounds an experiment's (and a sweep cell's)
	// requested ensemble size (default 100_000).
	MaxReplicates int
	// SweepWorkers bounds concurrently running sweeps (default 1). A
	// running sweep executes its cells sequentially, each cell fanning
	// replicates over up to Workers goroutines like an experiment.
	SweepWorkers int
	// MaxSweepCells bounds the number of cells a sweep's axes may expand
	// into (default 128) — each cell is a full ensemble.
	MaxSweepCells int
	// LeaseTTL is the cluster coordinator's lease time-to-live: how long
	// a worker's replicate-range lease survives without a heartbeat
	// before the range is reclaimed and reissued (default 15s).
	LeaseTTL time.Duration
	// Metrics, when non-nil, is the obs registry the manager registers
	// its instruments on (popprotod passes one shared with the store and
	// debug listener). Nil creates a private registry, so multiple
	// managers in one process (tests) never collide on metric names.
	Metrics *obs.Registry
	// Logger, when non-nil, receives one structured log record per HTTP
	// request (method, route, status, latency, resolved run id). Nil
	// disables request logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = min(runtime.NumCPU(), 8)
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 256
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	explicitMaxN := o.MaxN > 0
	if !explicitMaxN {
		o.MaxN = 200_000_000
	}
	if o.MaxNAgent <= 0 {
		o.MaxNAgent = 10_000_000
	}
	if o.MaxNBatch <= 0 {
		if explicitMaxN {
			o.MaxNBatch = o.MaxN
		} else {
			o.MaxNBatch = 2_000_000_000
		}
	}
	if o.MaxSnapshots <= 0 {
		o.MaxSnapshots = 256
	}
	if o.ExperimentWorkers <= 0 {
		o.ExperimentWorkers = 1
	}
	if o.MaxReplicates <= 0 {
		o.MaxReplicates = 100_000
	}
	if o.SweepWorkers <= 0 {
		o.SweepWorkers = 1
	}
	if o.MaxSweepCells <= 0 {
		o.MaxSweepCells = 128
	}
	return o
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts submissions answered from the finished-work cache,
	// Joined those attached to an identical in-flight run, and Misses
	// those that started a fresh simulation. All kinds share these
	// counters.
	Hits, Joined, Misses uint64
	// StoreHits counts submissions answered from the durable store after
	// missing the in-memory cache (e.g. after a restart or an LRU
	// eviction); StoreErrors counts failed persistence attempts.
	StoreHits, StoreErrors uint64
	// Jobs is the number of indexed jobs (live + cached), Cached the job
	// LRU's current size. Experiments and Sweeps count indexed runs of
	// those kinds.
	Jobs, Cached, Experiments int
	Sweeps                    int
	// Stored is the number of results in the durable store (0 without
	// one).
	Stored int
}

// Manager owns the shared scheduler, the per-kind run indexes, the
// result caches, and the optional durable store behind them.
type Manager struct {
	opts Options

	core  *runcore.Core
	sched *runcore.Scheduler

	jobClass   *runcore.Class
	expClass   *runcore.Class
	sweepClass *runcore.Class

	jobs   *runcore.Index[*Job]
	exps   *runcore.Index[*Experiment]
	sweeps *runcore.Index[*Sweep]

	coord *cluster.Coordinator

	reg     *obs.Registry
	metrics *serviceMetrics
	logger  *slog.Logger
	started time.Time
}

// NewManager starts a manager with opts' scheduler and caches.
func NewManager(opts Options) *Manager {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		opts:    opts,
		core:    runcore.NewCore(opts.Store),
		reg:     reg,
		logger:  opts.Logger,
		started: time.Now(),
	}
	m.core.Register(reg)
	m.metrics = newServiceMetrics(reg)
	m.coord = cluster.NewCoordinator(cluster.Options{LeaseTTL: opts.LeaseTTL})
	m.coord.Instrument(reg)
	// One worker pool sized so every kind can reach its concurrency cap
	// even when the others are saturated: jobs up to Workers at once,
	// experiments up to ExperimentWorkers, sweeps up to SweepWorkers
	// (the latter two each fan replicates over goroutines of their own).
	m.sched = runcore.NewScheduler(opts.Workers + opts.ExperimentWorkers + opts.SweepWorkers)
	m.sched.SetMetrics(runcore.NewMetrics(reg))
	m.jobClass = m.sched.NewClass("jobs", opts.QueueSize, opts.Workers)
	m.expClass = m.sched.NewClass("experiments", opts.QueueSize, opts.ExperimentWorkers)
	m.sweepClass = m.sched.NewClass("sweeps", opts.QueueSize, opts.SweepWorkers)
	m.jobs = runcore.NewIndex(m.core, store.KindJob, opts.CacheSize, func(j *Job) string { return j.ID })
	m.exps = runcore.NewIndex(m.core, store.KindExperiment, opts.CacheSize, func(e *Experiment) string { return e.ID })
	m.sweeps = runcore.NewIndex(m.core, store.KindSweep, opts.CacheSize, func(s *Sweep) string { return s.ID })
	return m
}

// MetricsRegistry returns the obs registry the manager's instruments
// live on (the one behind GET /metrics).
func (m *Manager) MetricsRegistry() *obs.Registry { return m.reg }

// Close stops accepting work, cancels everything queued or running, and
// waits for the workers to exit. It does not close the store: the store
// belongs to the caller that opened it.
func (m *Manager) Close() {
	already := m.core.SetClosed()
	if !already {
		m.jobs.CancelAll()
		m.exps.CancelAll()
		m.sweeps.CancelAll()
		m.coord.Close()
	}
	m.sched.Close()
}

// Canonicalize resolves a JobSpec and validates it against the registry
// and the manager's limits, returning the canonical spec, the resolved
// registry spec, the stabilization target, and the step budget. A job is
// a one-replicate ensemble, so its meaning — "auto" resolved to a
// concrete engine, the derived seed, the budget — is resolved by
// ensemble.Canonicalize exactly as replicate 0 of the experiment over
// the same spec is (see resolve). Errors wrap registry.ErrBadSpec.
func (m *Manager) Canonicalize(spec JobSpec) (JobSpec, registry.Spec, int, uint64, error) {
	espec, entry, err := m.resolve(spec, ensemble.Spec{Replicates: 1})
	if err != nil {
		return JobSpec{}, registry.Spec{}, 0, 0, err
	}
	spec.Engine = espec.Registry.Engine.String()
	spec.Seed = espec.Registry.Seed
	return spec, espec.Registry, entry.Target, espec.Budget, nil
}

// resolve canonicalizes the run that job describes, with the ensemble
// knobs (replicates, CI target, floor) of e, through
// ensemble.Canonicalize, and keeps only the server's part here: the
// wire default engine ("" = count), the observation cap, the
// maxParallelTime cap (registry.Entry.Budget) and the server limits.
func (m *Manager) resolve(job JobSpec, e ensemble.Spec) (ensemble.Spec, registry.Entry, error) {
	if job.Engine == "" {
		job.Engine = pp.EngineCount.String()
	}
	engine, err := pp.ParseEngine(job.Engine)
	if err != nil {
		return ensemble.Spec{}, registry.Entry{}, fmt.Errorf("%w: %v", registry.ErrBadSpec, err)
	}
	e.Registry = registry.Spec{Protocol: job.Protocol, N: job.N, Engine: engine, Seed: job.Seed, M: job.M}
	// The job trajectory cap doubles as the drive schedule's observation
	// cap; sharing it keeps replicate 0 bit-identical to the single job.
	e.ObsCap = m.opts.MaxSnapshots
	e, entry, err := ensemble.Canonicalize(e)
	if err == nil {
		e.Budget, err = entry.Budget(job.N, job.MaxParallelTime)
	}
	if err == nil {
		err = m.checkLimits(e)
	}
	if err != nil {
		return ensemble.Spec{}, registry.Entry{}, err
	}
	return e, entry, nil
}

// checkLimits applies the server's limits to a canonical ensemble spec:
// the per-engine population cap and the replicate cap.
func (m *Manager) checkLimits(e ensemble.Spec) error {
	if limit := m.engineLimit(e.Registry.Engine); e.Registry.N > limit {
		return fmt.Errorf(
			"%w: population size %d exceeds this server's %s-engine limit of %d (the census-based engines accept the largest populations)",
			registry.ErrBadSpec, e.Registry.N, e.Registry.Engine, limit)
	}
	if e.Replicates > m.opts.MaxReplicates {
		return fmt.Errorf("%w: %d replicates exceed this server's limit of %d",
			registry.ErrBadSpec, e.Replicates, m.opts.MaxReplicates)
	}
	return nil
}

// engineLimit returns the population cap for the given engine: per-agent
// memory and work are Θ(n), the census-based engines (count, batch,
// hybrid) are Θ(live states).
func (m *Manager) engineLimit(engine pp.Engine) int {
	switch engine {
	case pp.EngineAgent:
		return m.opts.MaxNAgent
	case pp.EngineBatch, pp.EngineHybrid:
		return m.opts.MaxNBatch
	default:
		return m.opts.MaxN
	}
}

// Submit canonicalizes spec and returns the job serving it: a cached
// finished job (cached = true), an identical job already in flight, or a
// freshly queued one. It fails with ErrBusy when the queue is full and an
// error wrapping registry.ErrBadSpec when the spec is invalid.
func (m *Manager) Submit(spec JobSpec) (job *Job, cached bool, err error) {
	canon, rspec, target, budget, err := m.Canonicalize(spec)
	if err != nil {
		return nil, false, err
	}
	key := canon.key()
	j, outcome, err := m.jobs.Submit(key, runID("j", key), m.decodeJob,
		func() (*Job, error) {
			j := &Job{
				Run:      runcore.NewRun[Frame](runID("j", key)),
				spec:     canon,
				rspec:    rspec,
				target:   target,
				budget:   budget,
				maxSnaps: m.opts.MaxSnapshots,
			}
			if err := m.jobClass.Enqueue(func() { m.runJob(j) }); err != nil {
				j.Cancel()
				return nil, err
			}
			return j, nil
		})
	if err != nil {
		return nil, false, err
	}
	return j, outcome.Cached(), nil
}

// Get returns the job with the given id, restoring it from the durable
// store if it is no longer indexed in memory.
func (m *Manager) Get(id string) (*Job, bool) {
	return m.jobs.Get(id, m.decodeJob)
}

// decodeJob reconstructs a finished job from a durable store record,
// used by the run core's restore-on-miss path. It returns false when
// the record no longer decodes or validates against the current
// registry.
func (m *Manager) decodeJob(rec store.Record) (*Job, bool) {
	var spec JobSpec
	var res Result
	if json.Unmarshal(rec.Spec, &spec) != nil || json.Unmarshal(rec.Data, &res) != nil {
		return nil, false
	}
	// Recompute the derived view fields (budget, target) from the
	// canonical spec; a record that no longer validates — the registry
	// changed underneath it — is not served.
	canon, rspec, target, budget, err := m.Canonicalize(spec)
	if err != nil || canon.key() != rec.Key {
		return nil, false
	}
	return &Job{
		Run:      runcore.NewRestoredRun[Frame](rec.ID, rec.SavedAt),
		spec:     canon,
		rspec:    rspec,
		target:   target,
		budget:   budget,
		result:   &res,
		maxSnaps: m.opts.MaxSnapshots,
	}, true
}

// Cancel requests cancellation of the job with the given id, reporting
// whether the job exists. Finished jobs are unaffected.
func (m *Manager) Cancel(id string) bool {
	return m.jobs.Cancel(id)
}

// Stats returns current cache, store and pool counters.
func (m *Manager) Stats() Stats {
	c := m.core.Counters()
	return Stats{
		Hits:        c.Hits,
		Joined:      c.Joined,
		Misses:      c.Misses,
		StoreHits:   c.StoreHits,
		StoreErrors: c.StoreErrors,
		Jobs:        m.jobs.Len(),
		Cached:      m.jobs.CacheLen(),
		Experiments: m.exps.Len(),
		Sweeps:      m.sweeps.Len(),
		Stored:      c.Stored,
	}
}

// QueueHealth is one kind's admission state in the health payload.
type QueueHealth struct {
	// Queued is the kind's admitted-but-not-dispatched task count;
	// Running its currently executing tasks.
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// Health is the GET /v1/health payload: liveness plus uptime, build
// identity, per-kind queue state, and the cache/store counters — every
// number sourced from the same obs instruments /metrics renders.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// GoVersion and Revision identify the build (from the embedded build
	// info; Revision is empty when the binary was built outside a VCS
	// checkout).
	GoVersion string                 `json:"goVersion"`
	Revision  string                 `json:"revision,omitempty"`
	Queues    map[string]QueueHealth `json:"queues"`
	Stats     Stats                  `json:"stats"`
}

// Health snapshots the manager for the health endpoint.
func (m *Manager) Health() Health {
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(m.started).Seconds(),
		Stats:         m.Stats(),
		Queues: map[string]QueueHealth{
			m.jobClass.Name():   {Queued: m.jobClass.Queued(), Running: m.jobClass.Running()},
			m.expClass.Name():   {Queued: m.expClass.Queued(), Running: m.expClass.Running()},
			m.sweepClass.Name(): {Queued: m.sweepClass.Queued(), Running: m.sweepClass.Running()},
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// runJob executes one job to a terminal state and indexes the outcome.
func (m *Manager) runJob(j *Job) {
	m.jobs.Execute(j.spec.key(), j, j.spec, nil, func(ctx context.Context) (func(), any, error) {
		start := time.Now()
		el, err := registry.New(j.rspec)
		if err != nil {
			// The spec was validated at submission; a failure here is an
			// internal inconsistency, reported on the job.
			return nil, nil, err
		}
		// Released after the last read of el; the final TopCensus is copied
		// into the result first.
		defer el.Release()

		// ensemble.Drive owns the chunk schedule (one parallel-time unit,
		// doubling on trajectory decimation): the census engines draw
		// randomness differently at different RunUntilLeaders boundaries, so
		// jobs and ensemble replicates must advance through the same driver
		// for replicate 0 of an experiment to be bit-identical to the job.
		// The observe callback records the initial configuration too, so
		// every trace has ≥ 2 points. Each snapshot is recorded once, here.
		var enc frameEncoder
		defer j.settle()
		observe := func() { j.record(enc.encode(el, censusCap)) }
		if ensemble.Drive(ctx, el, j.target, j.budget, j.maxSnaps, observe) {
			m.metrics.recordEngineRun(j.spec.Engine, el.Steps(), time.Since(start))
			return nil, nil, ctx.Err()
		}
		if last := el.Steps(); j.snapshotCount() == 1 || j.lastSnapshotStep() != last {
			// Runs that stabilize inside the first chunk still get a final
			// snapshot distinct from the initial one.
			observe()
		}

		res := &Result{
			Stabilized:   el.Leaders() <= j.target,
			Leaders:      el.Leaders(),
			Steps:        el.Steps(),
			ParallelTime: el.ParallelTime(),
			LiveStates:   el.LiveStates(),
			Description:  el.Description(),
		}
		// Capture the hybrid controller's telemetry before verification runs
		// extra interactions, so the occupancy partition matches res.Steps.
		if hs, ok := el.HybridStats(); ok {
			res.Hybrid = &HybridTelemetry{
				RoundSteps:    hs.RoundSteps,
				InteractSteps: hs.InteractSteps,
				SkipSteps:     hs.SkipSteps,
				Handovers:     hs.Handovers,
				SkipEntries:   hs.SkipEntries,
				SkipEvents:    hs.SkipEvents,
			}
			m.metrics.recordHybrid(hs)
		}
		m.metrics.recordLiveStates(j.spec.Engine, res.LiveStates)
		if j.spec.Verify > 0 && res.Stabilized {
			stable := el.VerifyStable(j.spec.Verify)
			res.Stable = &stable
		}
		top, omittedStates, omittedAgents := el.TopCensus(censusCap)
		res.Census = make(map[string]int, len(top))
		for _, e := range top {
			res.Census[e.State] = e.Count
		}
		res.OmittedStates, res.OmittedAgents = omittedStates, omittedAgents
		res.WallMillis = time.Since(start).Milliseconds()
		res.Distribution = cluster.LocalDistribution()
		m.metrics.recordEngineRun(j.spec.Engine, el.Steps(), time.Since(start))
		return func() { j.result = res }, res, nil
	})
}
