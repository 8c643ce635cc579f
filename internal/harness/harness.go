// Package harness checks the paper's claims by measurement: one row per
// table of the paper and per quantitative lemma or theorem, treating each
// proved bound as the figure it would have been in an empirical paper.
//
// The claims form one ordered table (All). A row names the claim, the
// ensemble cells it measures (each exactly the /v1/experiments request
// that reproduces it, which `experiments -list` prints; none for rows
// measured only on instrumented runs) and a check that reads the
// measurements into a Markdown report — tables and ASCII-chart "figures" —
// ending in machine-checkable PASS/FAIL verdicts against the paper's
// claim. Three shared drivers do the work every row used to re-spell:
// the ensemble-cell grid and its series (drivers.go), the one
// check-point loop of the instrumented rows (runUntil, whose predicate
// reads census observables through pp.CensusBy and records any series a
// row charts) and the report builder.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"popproto/internal/ensemble"
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
	// Replicates overrides the per-cell repetition count of the ensemble
	// cells (Table 1/2, Theorem 1, the symmetric comparison, the
	// ablation's m sweep); 0 keeps each experiment's default. Raise it for
	// tighter CIs, lower it for speed. Instrumented runs (the lemma
	// experiments, BackUp's Bstart and m = 1 runs, the ablation's Φ
	// sweep) keep their counts.
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

// Experiment is one row of the claims table.
type Experiment struct {
	// ID is the stable identifier `experiments -list` prints and takes.
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the table/figure/lemma being reproduced.
	Paper string
	// Cells returns the ensemble cells the row measures at cfg's scale,
	// in the layout its check reads them (see grid); nil for rows
	// measured only on instrumented runs.
	Cells func(cfg Config) []ensemble.Spec
	// Check reads the measurements into the report: the finished Cells
	// are in r.cells, instrumented runs happen here.
	Check func(cfg Config, r *report)
}

// All returns the claims table in report order.
func All() []Experiment {
	return []Experiment{
		{ID: "table3", Title: "variables of PLL and the O(log n) state count",
			Paper: "Table 3 and Lemma 3", Check: checkTable3},
		{ID: "theorem1", Title: "PLL stabilization time is O(log n) in expectation",
			Paper: "Theorem 1 (with Lemmas 8, 9, 11, 12)", Cells: theorem1Cells, Check: checkTheorem1},
		{ID: "table1", Title: "states vs. expected stabilization time across protocols",
			Paper: "Table 1 ([Ang+06], [Ali+17], [MST18], this work; the baseline package docs record the substitutions)",
			Cells: table1Cells, Check: checkTable1},
		{ID: "table2", Title: "measured times respect the lower bounds",
			Paper: "Table 2 ([DS18] Ω(n) for O(1) states; [SM19] Ω(log n) for any state count)",
			Cells: table2Cells, Check: checkTable2},
		{ID: "lemma2", Title: "one-way epidemic tail bound, full and sub-populations",
			Paper: "Lemma 2 (generalizing [Sud+12]; used by every module)", Check: checkLemma2},
		{ID: "lemma4", Title: "status assignment bounds: |V_A| ≥ n/2, |V_F| ≥ n/2, |V_B| ≥ 1",
			Paper: "Lemma 4", Check: checkLemma4},
		{ID: "lemma6", Title: "synchronization propositions P1–P3 of the count-up clock",
			Paper: "Lemma 6 (with Lemma 5)", Check: checkLemma6},
		{ID: "lemma7", Title: "QuickElimination survivor distribution vs the 2^{1−i} envelope",
			Paper: "Lemma 7 (the lottery game of §3.1.1)", Check: checkLemma7},
		{ID: "lemma8", Title: "unique leader before epoch 4 with probability 1 − O(1/log n)",
			Paper: "Lemma 8", Check: checkLemma8},
		{ID: "lemma9", Title: "all agents reach epoch 4 within O(log n) parallel time",
			Paper: "Lemma 9 (with Lemma 5)", Check: checkLemma9},
		{ID: "backup", Title: "BackUp elects from Bstart in O(log² n); desynchronized runs still elect",
			Paper: "Definition 3 and Lemmas 10–12 (plus Lemma 9's fallback)", Check: checkBackup},
		{ID: "coins", Title: "fairness and independence of both coin-flip constructions",
			Paper: "§3.2.3 (scheduler coins) and §4 (symmetric F0/F1 coins)", Check: checkCoins},
		{ID: "symmetric", Title: "symmetric variant: correctness and constant-factor parity",
			Paper: "Section 4", Cells: symmetricCells, Check: checkSymmetric},
		{ID: "trajectory", Title: "anatomy of one election: leader count and epoch occupancy over time",
			Paper: "§3.1 module pipeline (QuickElimination → Tournament ×2 → BackUp)", Check: checkTrajectory},
		{ID: "ablation", Title: "design knobs: Tournament width Φ and knowledge parameter m",
			Paper: "§3.2.4 (why Φ = ⌈2/3·lg m⌉, run twice) and the m = Θ(log n) requirement",
			Cells: ablationCells, Check: checkAblation},
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

// Run measures the row's cells, runs its check and renders the report.
func (e Experiment) Run(cfg Config) Result {
	r := &report{}
	if e.Cells != nil {
		for _, spec := range e.Cells(cfg) {
			r.cells = append(r.cells, measureEnsemble(cfg, spec))
		}
	}
	e.Check(cfg, r)
	return renderReport(e, r.String(), r.verdicts)
}

// report is the builder a row's check writes its Markdown body and
// verdicts into.
type report struct {
	strings.Builder
	cells    []ensemble.Aggregates
	verdicts []Verdict
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r, format, args...) }

// verdict records one claim check; detail is formatted as by printf.
func (r *report) verdict(claim string, pass bool, detail string, args ...any) {
	r.verdicts = append(r.verdicts, Verdict{Claim: claim, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
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

// reps scales a full-scale repetition count down to smoke-test scale.
func reps(cfg Config, full int) int {
	if cfg.Quick {
		return max(8, full/3)
	}
	return full
}

// pick selects by scale: the full-scale value (for a verdict threshold,
// the strict one) or the smoke-test one (the lenient threshold, where
// populations are too small and repetition counts too low for asymptotic
// shapes to be testable).
func pick[T any](cfg Config, full, quick T) T {
	if cfg.Quick {
		return quick
	}
	return full
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
