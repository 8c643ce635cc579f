// Package harness defines and runs the reproduction experiments: one per
// table of the paper and one per quantitative lemma/theorem, treating each
// proved bound as the figure it would have been in an empirical paper.
// DESIGN.md §4 is the authoritative index mapping experiment IDs to paper
// artifacts, modules and bench targets.
//
// Every experiment emits a Markdown report (tables and ASCII-chart
// "figures") plus machine-checkable verdicts comparing the measurement
// against the paper's claim. EXPERIMENTS.md is assembled from these
// reports.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"popproto/internal/pp"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Quick shrinks populations and repetition counts to smoke-test scale
	// (used by `go test`); full scale is the default for cmd/experiments.
	Quick bool
	// Seed is the master seed; every experiment derives all randomness
	// from it, so reports are exactly reproducible.
	Seed uint64
	// Workers bounds simulation parallelism; <= 0 means NumCPU.
	Workers int
	// Engine selects the simulation engine for the election-time sweeps
	// (Table 1/2, Theorem 1, trajectory, …). The zero value is the
	// per-agent engine; the census engine (pp.EngineCount), the
	// collision-free round engine (pp.EngineBatch) and the phase-adaptive
	// hybrid engine (pp.EngineHybrid, the fastest at large n)
	// reproduce the same distributions and reach populations the per-agent
	// engine cannot; the pseudo-engine pp.EngineAuto resolves per
	// measurement cell to the registry's recommendation. Experiments that
	// address individual agents (Bstart constructions, coin audits) always
	// use the per-agent engine.
	Engine pp.Engine
	// Replicates overrides the per-cell repetition count of the cells
	// that measure a plain registry spec through measureEnsemble (Table
	// 1/2, Theorem 1, the symmetric comparison, the ablation's m sweep);
	// 0 keeps each experiment's default. Raise it for tighter CIs, lower
	// it for speed. Instrumented runs (the lemma experiments, BackUp's
	// Bstart and m = 1 runs, the ablation's Φ sweep) keep their counts.
	Replicates int
	// CITarget, when positive, lets those ensembles stop early once the
	// relative 95% CI half-width of the mean stabilization time reaches
	// it — trading a fixed repetition count for a precision target.
	CITarget float64
}

// DefaultConfig returns the configuration used by cmd/experiments.
func DefaultConfig() Config { return Config{Seed: 20190612} } // PODC 2019 ;-)

// Verdict is one machine-checked comparison between a paper claim and the
// measurement.
type Verdict struct {
	// Claim cites the paper's statement being checked.
	Claim string
	// Pass reports whether the measurement is consistent with the claim.
	Pass bool
	// Detail holds the measured numbers backing the verdict.
	Detail string
}

// Result is a finished experiment report.
type Result struct {
	ID       string
	Title    string
	Markdown string
	Verdicts []Verdict
}

// Passed reports whether every verdict passed.
func (r Result) Passed() bool {
	for _, v := range r.Verdicts {
		if !v.Pass {
			return false
		}
	}
	return true
}

// Experiment is a registered reproduction experiment.
type Experiment struct {
	// ID is the stable identifier used by cmd/experiments and DESIGN.md.
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the table/figure/lemma being reproduced.
	Paper string
	// Run executes the experiment.
	Run func(Config) Result
}

// All returns the experiment registry in report order.
func All() []Experiment {
	return []Experiment{
		table3Experiment(),
		theorem1Experiment(),
		table1Experiment(),
		table2Experiment(),
		lemma2Experiment(),
		lemma4Experiment(),
		lemma6Experiment(),
		lemma7Experiment(),
		lemma8Experiment(),
		lemma9Experiment(),
		backupExperiment(),
		coinsExperiment(),
		symmetricExperiment(),
		trajectoryExperiment(),
		ablationExperiment(),
	}
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all registered identifiers, sorted.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// renderReport assembles the standard report layout.
func renderReport(e Experiment, body string, verdicts []Verdict) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "## Experiment `%s` — %s\n\n", e.ID, e.Title)
	fmt.Fprintf(&b, "*Reproduces:* %s\n\n", e.Paper)
	b.WriteString(body)
	b.WriteString("\n**Verdicts**\n\n")
	for _, v := range verdicts {
		mark := "PASS"
		if !v.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "- [%s] %s — %s\n", mark, v.Claim, v.Detail)
	}
	return Result{ID: e.ID, Title: e.Title, Markdown: b.String(), Verdicts: verdicts}
}

// sweepSizes returns the n sweep for time-growth experiments.
func sweepSizes(cfg Config, logTime bool) []int {
	if cfg.Quick {
		return []int{128, 512, 2048}
	}
	if logTime {
		// Protocols with (poly)logarithmic time afford larger populations.
		return []int{256, 512, 1024, 2048, 4096, 8192, 16384}
	}
	// Θ(n)-time protocols need n² steps per run; keep the sweep modest.
	return []int{128, 256, 512, 1024, 2048}
}

func reps(cfg Config, full int) int {
	if cfg.Quick {
		return max(8, full/3)
	}
	return full
}

// pick selects a verdict threshold: the strict value at full scale, the
// lenient one at smoke-test scale, where populations are too small and
// repetition counts too low for asymptotic shapes to be testable.
func pick(cfg Config, strict, lenient float64) float64 {
	if cfg.Quick {
		return lenient
	}
	return strict
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
