// Command leaderelect runs a single leader election and reports its
// progress and outcome. It exposes every protocol in the registry: the
// paper's PLL (asymmetric and symmetric), the Table 1 baselines, and the
// epidemic coverage workload.
//
// Usage:
//
//	leaderelect -list-protocols
//	leaderelect -protocol pll -n 100000 -seed 7 -trace 5
//	leaderelect -protocol pll -engine count -n 100000000 -seed 7
//	leaderelect -protocol pll -engine count -n 100000 -replicates 50
//
// The -engine flag selects the simulation engine: "agent" keeps one state
// per agent; "count" keeps only the census (state multiplicities), which is
// what makes populations of 10^7-10^8 agents practical; "batch" adds
// collision-free rounds on top of the census; "hybrid" monitors the census
// and hands over between batch rounds, per-interaction sampling and
// geometric no-op skipping as the payoff flips; "auto" resolves to the
// registry's recommendation for the protocol and population size.
//
// With -trace k the leader count is printed every k units of parallel
// time until stabilization.
//
// With -replicates R > 1 the command runs a multi-core Monte-Carlo
// ensemble instead of a single election and reports the aggregate
// statistics — mean stabilization time with a 95% CI, p50/p90/p99, the
// survival curve (with -chart) — optionally stopping early once the CI
// is tight enough (-ci).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"popproto/internal/asciichart"
	"popproto/internal/cliflags"
	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leaderelect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("leaderelect", flag.ContinueOnError)
	// The shared flags (engine, protocol, replicates, ci, workers) are
	// registered through internal/cliflags so their spellings, catalogs
	// and validation stay identical across leaderelect, experiments and
	// sweep.
	protocol := cliflags.Protocol(fs, "pll")
	engineName := cliflags.Engine(fs, "agent", "simulation engine")
	list := fs.Bool("list-protocols", false, "print the protocol catalog with parameter docs and exit")
	n := fs.Int("n", 10000, "population size")
	seed := cliflags.Seed(fs, 1, "scheduler seed")
	m := fs.Int("m", 0, "knowledge parameter m for the PLL variants (0 = ⌈lg n⌉)")
	budget := fs.Float64("max-parallel", 1e6, "give up after this much parallel time")
	traceEvery := fs.Float64("trace", 0, "print the leader count every this many parallel time units (0 = off)")
	chart := fs.Bool("chart", false, "render an ASCII chart of the leader count trajectory (with -replicates: the survival curve)")
	verify := fs.Uint64("verify", 0, "extra interactions to verify stability after election")
	replicates := cliflags.Replicates(fs, 1, "run a Monte-Carlo ensemble of this many elections and report aggregate statistics")
	ciTarget := cliflags.CI(fs)
	workers := cliflags.Workers(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		// The catalog is the command's output, not diagnostics: stdout,
		// so it can be piped and grepped.
		printCatalog(os.Stdout)
		return nil
	}
	engine, err := pp.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	resolved, err := registry.ResolveEngine(registry.Spec{Protocol: *protocol, N: *n, Engine: engine})
	if err != nil {
		return err
	}
	engine = resolved.Engine
	if err := ensemble.CheckCI(*ciTarget); err != nil {
		return err
	}
	if *ciTarget > 0 && *replicates < 2 {
		// A 1-replicate "ensemble" can never evaluate a CI target; demand
		// the flag combination that can.
		return fmt.Errorf("-ci needs -replicates > 1 (got %d)", *replicates)
	}
	if *replicates > 1 {
		return electEnsemble(registry.Spec{
			Protocol: *protocol, N: *n, Engine: engine, Seed: *seed, M: *m,
		}, *replicates, *ciTarget, uint64(*budget*float64(*n)), *workers, *chart)
	}

	el, err := registry.New(registry.Spec{
		Protocol: *protocol,
		N:        *n,
		Engine:   engine,
		Seed:     *seed,
		M:        *m,
	})
	if err != nil {
		return err
	}
	fmt.Println(el.Description())
	fmt.Printf("%d agents, seed %d, %s engine\n", el.N(), *seed, engine)
	maxSteps := uint64(*budget * float64(*n))
	return elect(el, engine, maxSteps, *traceEvery, *chart, *verify)
}

// electEnsemble runs a Monte-Carlo ensemble of the spec and prints the
// aggregate statistics the single-run path cannot give: mean parallel
// stabilization time with a 95% confidence interval, tail quantiles, and
// (with -chart) the empirical survival curve.
func electEnsemble(spec registry.Spec, replicates int, ciTarget float64, maxSteps uint64, workers int, chart bool) error {
	if _, err := registry.Validate(spec); err != nil {
		return err
	}
	fmt.Printf("ensemble: %s n=%d engine=%s, %d replicates", spec.Protocol, spec.N, spec.Engine, replicates)
	if ciTarget > 0 {
		fmt.Printf(" (early stop at ±%.0f%% CI)", ciTarget*100)
	}
	fmt.Println()

	// Progress: a line every ~10% of the requested replicates.
	every := max(replicates/10, 1)
	res, err := ensemble.Run(context.Background(), ensemble.Spec{
		Registry:   spec,
		Replicates: replicates,
		Budget:     maxSteps,
		CITarget:   ciTarget,
	}, ensemble.Options{
		Workers: workers,
		OnUpdate: func(agg ensemble.Aggregates) {
			if agg.Replicates%every == 0 || agg.Replicates == replicates {
				fmt.Printf("  %4d/%d  mean t = %.2f ±%.2f  p50 %.2f  p90 %.2f\n",
					agg.Replicates, replicates, agg.MeanParallelTime,
					(agg.CIHi-agg.CILo)/2, agg.P50, agg.P90)
			}
		},
	})
	if err != nil {
		return err
	}
	agg := res.Aggregates
	fmt.Println()
	if agg.EarlyStopped {
		fmt.Printf("early stop: CI target reached after %d of %d replicates\n",
			agg.Replicates, agg.Requested)
	}
	fmt.Printf("replicates   %d (base seed %d)\n", agg.Replicates, res.Spec.Registry.Seed)
	fmt.Printf("stabilized   %d/%d (95%% CI for p: [%.3f, %.3f])\n",
		agg.Stabilized, agg.Replicates, agg.StabilizedLo, agg.StabilizedHi)
	fmt.Printf("mean time    %.3f ± %.3f parallel time (95%% CI [%.3f, %.3f], sd %.3f)\n",
		agg.MeanParallelTime, (agg.CIHi-agg.CILo)/2, agg.CILo, agg.CIHi, agg.StdParallelTime)
	fmt.Printf("quantiles    p50 %.3f   p90 %.3f   p99 %.3f   range [%.3f, %.3f]\n",
		agg.P50, agg.P90, agg.P99, agg.MinParallelTime, agg.MaxParallelTime)
	fmt.Printf("mean steps   %.0f\n", agg.MeanSteps)
	if chart && len(agg.Survival) > 0 {
		xs := make([]float64, len(agg.Survival))
		ys := make([]float64, len(agg.Survival))
		for i, p := range agg.Survival {
			xs[i] = p.T
			ys[i] = p.Frac
		}
		fmt.Print(asciichart.Plot(
			[]asciichart.Series{{Name: "fraction of runs still electing", X: xs, Y: ys}},
			asciichart.Options{Width: 64, Height: 12, XLabel: "parallel time", YLabel: "surviving"},
		))
	}
	if agg.Stabilized < agg.Replicates {
		return fmt.Errorf("%d of %d replicates did not stabilize within %d steps",
			agg.Replicates-agg.Stabilized, agg.Replicates, maxSteps)
	}
	return nil
}

// printCatalog writes the registry with parameter docs, one protocol per
// block.
func printCatalog(w io.Writer) {
	for _, e := range registry.Entries() {
		fmt.Fprintf(w, "%-10s %s\n", e.Key, e.Summary)
		fmt.Fprintf(w, "           states %s, expected time %s, stabilizes at %d leader(s), n ≥ %d\n",
			e.States, e.Time, e.Target, e.MinN)
		engines := make([]string, 0, 3)
		for _, eng := range e.SuitableEngines() {
			engines = append(engines, eng.String())
		}
		fmt.Fprintf(w, "           engines (best first): %s\n", strings.Join(engines, ", "))
		for _, p := range e.Params {
			fmt.Fprintf(w, "           -%s: %s\n", p.Name, p.Doc)
		}
	}
	fmt.Fprintf(w, "\n-engine %s resolves to the best engine per protocol and population size\n",
		pp.EngineAuto)
}

func elect(el registry.Election, engine pp.Engine, maxSteps uint64, traceEvery float64, chart bool, verify uint64) error {
	n := el.N()
	target := el.Target()

	switch {
	case chart:
		// Sample the leader count once per unit of parallel time.
		var xs, ys []float64
		sample := func() {
			xs = append(xs, el.ParallelTime())
			ys = append(ys, float64(el.Leaders()))
		}
		for sample(); el.Leaders() > target && el.Steps() < maxSteps; sample() {
			el.RunUntilLeaders(target, min(el.Steps()+uint64(n), maxSteps))
		}
		fmt.Print(asciichart.Plot(
			[]asciichart.Series{{Name: "leaders", X: xs, Y: ys}},
			asciichart.Options{Width: 64, Height: 14, XLabel: "parallel time", YLabel: "leaders"},
		))
	case traceEvery > 0:
		chunk := max(uint64(traceEvery*float64(n)), 1)
		for el.Leaders() > target && el.Steps() < maxSteps {
			el.RunUntilLeaders(target, min(el.Steps()+chunk, maxSteps))
			fmt.Printf("t = %8.1f  leaders = %d\n", el.ParallelTime(), el.Leaders())
		}
	default:
		el.RunUntilLeaders(target, maxSteps)
	}

	if el.Leaders() != target {
		return fmt.Errorf("no stabilization within %d steps (%d leaders remain, want %d)",
			maxSteps, el.Leaders(), target)
	}
	switch {
	case engine == pp.EngineAgent && target == 1:
		// Only the per-agent engine has real agent identities; the census
		// engine's ids are synthetic, and scanning 10⁸ agents to print one
		// would dwarf the election itself.
		fmt.Printf("elected agent %d after %.2f parallel time (%d interactions)\n",
			el.LeaderID(), el.ParallelTime(), el.Steps())
	case target == 1:
		fmt.Printf("elected a unique leader after %.2f parallel time (%d interactions, %d live states)\n",
			el.ParallelTime(), el.Steps(), el.LiveStates())
	default:
		fmt.Printf("stabilized at %d leaders after %.2f parallel time (%d interactions)\n",
			target, el.ParallelTime(), el.Steps())
	}

	if verify > 0 {
		if el.VerifyStable(verify) {
			fmt.Printf("stable: no output changed over %d further interactions\n", verify)
		} else {
			return fmt.Errorf("output changed during the %d-interaction stability check", verify)
		}
	}
	return nil
}
