package service

import (
	"sync"
	"time"

	"popproto/internal/obs"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

// serviceMetrics is the manager's instrument set: HTTP front-door
// series, per-engine simulation throughput, and the hybrid controller's
// aggregated mode occupancy (runcore counts the run lifecycle). Every
// series a health endpoint reports is sourced from these same
// instruments (or runcore's), so /v1/health and /metrics cannot
// disagree.
type serviceMetrics struct {
	// HTTP front door (maintained by the middleware in middleware.go).
	httpRequests   *obs.CounterVec   // {route, method, code}: code is the status class ("2xx")
	httpDuration   *obs.HistogramVec // {route}
	httpInFlight   *obs.Gauge
	sseSubscribers *obs.Gauge

	// Engine throughput, recorded when a run finishes: interactions
	// simulated, runs finished, and a ns/interaction EWMA per engine.
	engineRuns         *obs.CounterVec // {engine}
	engineInteractions *obs.CounterVec // {engine}
	engineNsPer        *obs.GaugeVec   // {engine}

	// Hybrid controller aggregates across all hybrid runs.
	hybridModeInteractions *obs.CounterVec // {mode}
	hybridHandovers        *obs.Counter
	skipEntries            *obs.Counter
	skipLength             *obs.Histogram

	// Live support of the most recently finished run per engine: the k
	// that drives every engine's per-event cost and the payoff-driven
	// skip rule's break-even.
	liveStates *obs.GaugeVec // {engine}

	// EWMA state behind engineNsPer (α = ewmaAlpha), guarded separately
	// from the lock-free instruments.
	mu   sync.Mutex
	ewma map[string]float64
}

// ewmaAlpha weights the newest run's ns/interaction at 20% — smooth
// enough to damp one outlier run, fresh enough to follow a phase shift
// within a handful of runs.
const ewmaAlpha = 0.2

// newServiceMetrics creates the manager's instruments, registers them on
// reg, and pre-seeds every enumerable label combination.
func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	m := &serviceMetrics{
		httpRequests: obs.NewCounterVec("popprotod_http_requests_total",
			"HTTP requests by route pattern, method and status class.",
			"route", "method", "code"),
		httpDuration: obs.NewHistogramVec("popprotod_http_request_seconds",
			"HTTP request latency by route pattern.",
			obs.ExpBuckets(0.0005, 2, 16), "route"),
		httpInFlight: obs.NewGauge("popprotod_http_in_flight",
			"HTTP requests currently being served."),
		sseSubscribers: obs.NewGauge("popprotod_sse_subscribers",
			"Live server-sent-event streams (trace and stream endpoints)."),
		engineRuns: obs.NewCounterVec("popprotod_engine_runs_total",
			"Finished simulations by engine (experiment/sweep ensembles count once).",
			"engine"),
		engineInteractions: obs.NewCounterVec("popprotod_engine_interactions_total",
			"Interactions simulated by finished runs, by engine (ensemble totals are mean x replicates).",
			"engine"),
		engineNsPer: obs.NewGaugeVec("popprotod_engine_ns_per_interaction",
			"EWMA of wall nanoseconds per simulated interaction, by engine.",
			"engine"),
		hybridModeInteractions: obs.NewCounterVec("popprotod_hybrid_mode_interactions_total",
			"Interactions executed by the hybrid engine per controller mode, across finished jobs.",
			"mode"),
		hybridHandovers: obs.NewCounter("popprotod_hybrid_handovers_total",
			"Hybrid controller mode switches across finished jobs."),
		skipEntries: obs.NewCounter("popprotod_engine_skip_entries_total",
			"Handovers into geometric skip mode taken by the payoff-driven controller, across finished jobs."),
		skipLength: obs.NewHistogram("popprotod_hybrid_skip_length_interactions",
			"Mean realized skip-event length (interactions jumped per skip event) of finished hybrid runs with at least one skip event.",
			obs.ExpBuckets(1, 8, 16)),
		liveStates: obs.NewGaugeVec("popprotod_engine_live_states",
			"Live (nonzero-count) states of the most recently finished run, by engine.",
			"engine"),
		ewma: make(map[string]float64),
	}
	reg.MustRegister(m.httpRequests, m.httpDuration, m.httpInFlight,
		m.sseSubscribers, m.engineRuns, m.engineInteractions,
		m.engineNsPer, m.hybridModeInteractions, m.hybridHandovers,
		m.skipEntries, m.skipLength, m.liveStates)
	// The process's heap, read at scrape time: what the server retains
	// (cached trajectories and results above all) and how fast it
	// allocates.
	reg.MustRegister(obs.RuntimeMemory()...)
	// The registry's pool of warm agent-engine tables, read at scrape
	// time: what the server keeps besides its cached runs.
	reg.MustRegister(
		obs.NewGaugeFunc("popprotod_pool_tables",
			"Idle warm agent-engine state tables in the registry's pool.",
			func() float64 { tables, _ := registry.PoolStats(); return float64(tables) }),
		obs.NewGaugeFunc("popprotod_pool_bytes",
			"Approximate bytes the pool's idle tables hold: transition memo cells, agent arrays and quoted census names.",
			func() float64 { _, bytes := registry.PoolStats(); return float64(bytes) }))
	for _, engine := range pp.EngineNames() {
		m.engineRuns.With(engine)
		m.engineInteractions.With(engine)
		m.engineNsPer.With(engine)
		m.liveStates.With(engine)
	}
	for _, mode := range []pp.HybridMode{pp.ModeRound, pp.ModeInteract, pp.ModeSkip} {
		m.hybridModeInteractions.With(mode.String())
	}
	return m
}

// recordEngineRun records a finished simulation's throughput: steps
// simulated over wall time on the named engine. Ensembles pass their
// approximate total (mean steps x replicates) and the ensemble's wall
// time, so the EWMA reflects delivered multi-core throughput.
func (m *serviceMetrics) recordEngineRun(engine string, steps uint64, wall time.Duration) {
	m.engineRuns.With(engine).Inc()
	m.engineInteractions.With(engine).Add(steps)
	if steps == 0 || wall <= 0 {
		return
	}
	ns := float64(wall.Nanoseconds()) / float64(steps)
	m.mu.Lock()
	prev, ok := m.ewma[engine]
	if !ok {
		prev = ns
	}
	cur := ewmaAlpha*ns + (1-ewmaAlpha)*prev
	m.ewma[engine] = cur
	m.mu.Unlock()
	m.engineNsPer.With(engine).Set(cur)
}

// recordHybrid folds one finished hybrid run's controller telemetry into
// the aggregate mode-occupancy, handover and skip-payoff series.
func (m *serviceMetrics) recordHybrid(st pp.HybridStats) {
	m.hybridModeInteractions.With(pp.ModeRound.String()).Add(st.RoundSteps)
	m.hybridModeInteractions.With(pp.ModeInteract.String()).Add(st.InteractSteps)
	m.hybridModeInteractions.With(pp.ModeSkip.String()).Add(st.SkipSteps)
	m.hybridHandovers.Add(st.Handovers)
	m.skipEntries.Add(st.SkipEntries)
	if st.SkipEvents > 0 {
		m.skipLength.Observe(float64(st.SkipSteps) / float64(st.SkipEvents))
	}
}

// recordLiveStates publishes the finished run's live support per engine.
func (m *serviceMetrics) recordLiveStates(engine string, live int) {
	m.liveStates.With(engine).Set(float64(live))
}
