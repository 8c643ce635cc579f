// Command experiments regenerates the paper-reproduction experiments: the
// empirical Tables 1–3 and the per-lemma measurements indexed in DESIGN.md
// §4. Reports are written as Markdown to stdout (and optionally a file),
// each ending in PASS/FAIL verdicts against the paper's claims.
//
// Usage:
//
//	experiments -list
//	experiments [-quick] [-seed N] [-engine agent|count|batch|hybrid|auto] [-replicates R] [-ci X] [-out FILE] [ids...]
//
// With no ids, every experiment runs in registry order. -replicates and
// -ci tune the cells that measure a plain registry spec (Table 1/2,
// Theorem 1, the symmetric comparison and the ablation's m sweep):
// -replicates overrides the per-cell ensemble size, and -ci stops each
// ensemble early once the relative 95% CI half-width of the mean
// stabilization time drops to the target.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"popproto/internal/cliflags"
	"popproto/internal/ensemble"
	"popproto/internal/harness"
	"popproto/internal/pp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	quick := fs.Bool("quick", false, "smoke-test scale (small n, few repetitions)")
	seed := cliflags.Seed(fs, harness.DefaultConfig().Seed, "master seed")
	workers := cliflags.Workers(fs)
	// Registered through internal/cliflags, so the engine catalog (incl.
	// "auto", resolved per measurement cell) cannot drift as engines are
	// added.
	engine := cliflags.Engine(fs, "agent", "simulation engine for election sweeps")
	replicates := cliflags.Replicates(fs, 0,
		"override the replicate count per ensemble cell in Table 1/2, Theorem 1, symmetric and the ablation m sweep (0 = experiment defaults)")
	ci := cliflags.CI(fs)
	out := fs.String("out", "", "also write the combined report to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ensemble.CheckCI(*ci); err != nil {
		return err
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	eng, err := pp.ParseEngine(*engine)
	if err != nil {
		return err
	}
	cfg := harness.Config{
		Quick: *quick, Seed: *seed, Workers: *workers, Engine: eng,
		Replicates: *replicates, CITarget: *ci,
	}
	selected := harness.All()
	if fs.NArg() > 0 {
		selected = selected[:0]
		for _, id := range fs.Args() {
			e, ok := harness.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	var combined strings.Builder
	failures := 0
	for _, e := range selected {
		start := time.Now()
		res := e.Run(cfg)
		elapsed := time.Since(start).Round(10 * time.Millisecond)
		fmt.Fprintf(os.Stderr, "[%s] finished in %v\n", e.ID, elapsed)
		fmt.Println(res.Markdown)
		combined.WriteString(res.Markdown)
		combined.WriteString("\n")
		if !res.Passed() {
			failures++
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(combined.String()), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) had failing verdicts", failures)
	}
	return nil
}
