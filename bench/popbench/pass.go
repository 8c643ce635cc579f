package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"time"

	"popproto/internal/ensemble"
	"popproto/internal/registry"
	"popproto/internal/stats"
)

// maxProblems caps the failed-check descriptions a run keeps; the failed
// count itself is exact.
const maxProblems = 20

// pass is one measured pass of a workload: untraced (end-to-end metrics)
// or traced (per-layer metrics). A traced run makes one of each, so the
// tracing overhead is the difference between the two.
type pass struct {
	workload  string
	seed      uint64
	budget    time.Duration // measured phase; fixed minimums may overrun it
	tr        *tracer       // nil when untraced
	self      string        // this executable, for set-up children
	popprotod string
	work      string // scratch directory of this pass (stores)

	attempted, failed int
	problems          []string
	digest            hash.Hash

	setup   []float64          // set-up samples, seconds
	metrics map[string]float64 // end-to-end
	layers  map[string]float64 // per-layer (traced pass only)
	details map[string]float64 // absolute per-layer numbers, for reading
}

func newPass(workload string, seed uint64, budget time.Duration, traced bool, self, popprotod, work string) *pass {
	p := &pass{
		workload:  workload,
		seed:      seed,
		budget:    budget,
		self:      self,
		popprotod: popprotod,
		work:      work,
		digest:    sha256.New(),
		metrics:   make(map[string]float64),
		layers:    make(map[string]float64),
		details:   make(map[string]float64),
	}
	if traced {
		p.tr = newTracer()
		for _, name := range optionalLayers {
			p.layers[name] = 0
		}
	}
	return p
}

// check records a failed correctness check; it returns ok so callers can
// count the failed operation.
func (p *pass) check(ok bool, format string, args ...any) bool {
	if !ok {
		if len(p.problems) < maxProblems {
			p.problems = append(p.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// digestLine adds one line of deterministic output to the pass digest.
func (p *pass) digestLine(format string, args ...any) {
	fmt.Fprintf(p.digest, format+"\n", args...)
}

func (p *pass) digestHex() string { return hex.EncodeToString(p.digest.Sum(nil)[:16]) }

// keepGoing reports whether a time-bounded loop should start operation i
// (0-based) that started at start: always below min, otherwise only while
// the expected end, at the mean duration so far, stays within the budget.
func (p *pass) keepGoing(start time.Time, i, min int) bool {
	if i < min {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(i) <= p.budget
}

// setupRuns set-up samples are taken per untraced pass of the engine and
// sweep workloads; set-up is tens of milliseconds, so its median needs
// several.
const setupRuns = 9

// setupDue measures set-up the way a user pays it, once the pass has run
// for another budget/setupRuns since start: it starts this executable in
// set-up mode (process start, package init, the workload's construction
// and its fixed warm-up) and records the wall time. Spreading the samples
// over the pass keeps one slow moment of the host from moving all of
// them. It returns the time spent, which the caller keeps out of its
// measured phase; a traced pass takes no samples.
func (p *pass) setupDue(start time.Time) (time.Duration, error) {
	if p.tr != nil || len(p.setup) == setupRuns ||
		time.Since(start) < time.Duration(len(p.setup))*p.budget/setupRuns {
		return 0, nil
	}
	t := time.Now()
	cmd := command(p.self, "-setup", "-workload", p.workload)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	d := time.Since(t)
	p.setup = append(p.setup, d.Seconds())
	return d, nil
}

// setupRest takes the set-up samples a pass ended before reaching.
func (p *pass) setupRest() error {
	for p.tr == nil && len(p.setup) < setupRuns {
		if _, err := p.setupDue(time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// mix derives an independent seed from a seed and a path of integers
// (the ensemble's replicate-seed derivation at each step), so every input
// of a run is a function of -seed. It never returns 0, which the service
// would treat as "derive a seed for me".
func mix(seed uint64, path ...uint64) uint64 {
	x := seed
	for _, v := range path {
		x = ensemble.ReplicateSeed(x, int(v)+1)
	}
	if x == 0 {
		return 1
	}
	return x
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is stats.Quantile with an empty sample reading 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b with a zero base reading 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyMetrics fills the end-to-end metrics shared by every workload
// from the operation latencies of the measured phase. tailQ is the
// workload's tail quantile: p99 where a run times thousands of
// operations, p90 where it times a few hundred.
func (p *pass) latencyMetrics(ops int, wall time.Duration, latMs []float64, tailQ float64) {
	p.metrics["ops_per_s"] = float64(ops) / wall.Seconds()
	p.metrics["op_p50_ms"] = quantile(latMs, 0.50)
	p.metrics["op_tail_ms"] = quantile(latMs, tailQ)
	p.metrics["setup_s"] = median(p.setup)
}

// memDelta measures Go heap allocation and GC cycles across a phase of
// in-process engine work.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) done(p *pass, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.layers["go.alloc_bytes_per_op"] = ratio(float64(after.TotalAlloc-m.before.TotalAlloc), float64(ops))
	p.layers["go.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
}

// engineStats accumulates the engine layer's per-layer numbers over the
// in-process engine work of a traced pass: windows, or elections
// replayed through ensemble.Drive.
type engineStats struct {
	chunkNs     []float64 // per-chunk ns/interaction
	chunkTime   time.Duration
	steps       uint64
	newMs       []float64
	opTime      time.Duration // windows or whole replays, construction included
	ops         int
	liveMax     int
	observeTime time.Duration // spent in observe, excluded from opTime
	round       uint64
	interact    uint64
	skip        uint64
	handovers   uint64
	hybridSteps uint64
}

func (s *engineStats) chunk(d time.Duration, interactions uint64) {
	if interactions == 0 {
		return
	}
	s.chunkTime += d
	s.chunkNs = append(s.chunkNs, float64(d.Nanoseconds())/float64(interactions))
}

// observe samples the live-state count between chunks. It renders the
// census, so its own time is set aside rather than charged to the op.
func (s *engineStats) observe(el registry.Election) {
	start := time.Now()
	s.liveMax = max(s.liveMax, el.LiveStates())
	s.observeTime += time.Since(start)
}

// hybrid folds the hybrid controller's exact mode counts of a finished
// election (no-op on other engines).
func (s *engineStats) hybrid(el registry.Election) {
	hs, ok := el.HybridStats()
	if !ok {
		return
	}
	s.round += hs.RoundSteps
	s.interact += hs.InteractSteps
	s.skip += hs.SkipSteps
	s.handovers += hs.Handovers
	s.hybridSteps += hs.Steps
}

// fill writes the engine layer's per-layer metrics.
func (s *engineStats) fill(p *pass) {
	p.layers["pp.chunk_ns_per_interaction.p50"] = quantile(s.chunkNs, 0.50)
	p.layers["pp.chunk_ns_per_interaction.p90"] = quantile(s.chunkNs, 0.90)
	p.layers["pp.ns_per_interaction"] = ratio(float64(s.chunkTime.Nanoseconds()), float64(s.steps))
	p.layers["pp.live_states.max"] = float64(s.liveMax)
	p.layers["registry.new_ms"] = median(s.newMs)
	p.layers["ensemble.engine_share"] = ratio(s.chunkTime.Seconds(), s.opTime.Seconds())
	if s.hybridSteps > 0 {
		base := float64(s.hybridSteps)
		p.layers["pp.hybrid.round_frac"] = float64(s.round) / base
		p.layers["pp.hybrid.interact_frac"] = float64(s.interact) / base
		p.layers["pp.hybrid.skip_frac"] = float64(s.skip) / base
		p.layers["pp.hybrid.handovers_per_op"] = ratio(float64(s.handovers), float64(s.ops))
	}
}

// replay runs one election exactly as a service job or an ensemble
// replicate runs it — registry.New, then ensemble.Drive's chunk schedule —
// with a span per construction and per chunk. Because the schedule is the
// production one, the replay reproduces the served or replicated result
// bit for bit, which the callers check.
func (p *pass) replay(spec registry.Spec, budget uint64, parent int, run string, st *engineStats) (registry.Election, error) {
	opStart := time.Now()
	observed := st.observeTime
	el, err := registry.New(spec)
	built := time.Now()
	if err != nil {
		return nil, err
	}
	p.tr.record("registry.New", parent, run, opStart, built)
	st.newMs = append(st.newMs, ms(built.Sub(opStart)))
	driveID := p.tr.open("ensemble.Drive", parent, run)
	chunkStart := time.Now()
	lastSteps := el.Steps()
	ensemble.Drive(context.Background(), el, el.Target(), budget, ensemble.DefaultObsCap, func() {
		now := time.Now()
		if steps := el.Steps(); steps > lastSteps {
			p.tr.record("pp.RunUntilLeaders", driveID, run, chunkStart, now)
			st.chunk(now.Sub(chunkStart), steps-lastSteps)
			lastSteps = steps
		}
		st.observe(el)
		chunkStart = time.Now()
	})
	p.tr.close(driveID)
	st.steps += el.Steps()
	st.opTime += time.Since(opStart) - (st.observeTime - observed)
	st.ops++
	st.hybrid(el)
	return el, nil
}
