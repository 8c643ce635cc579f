// Command sweep runs a parameter sweep — a population grid × a protocol
// list, every cell a full Monte-Carlo ensemble — and reports the grid
// with per-cell confidence intervals plus the fitted scaling curves:
// mean parallel time = a·lg n + b with R², and the log-log power
// exponent that separates Θ(log n) from polynomial growth. It is the
// command-line counterpart of popprotod's POST /v1/sweeps, checking the
// paper's Theorem 1 shape (and the Sudo–Masuzawa lower bound's) in one
// invocation.
//
// Usage:
//
//	sweep -protocols pll -ns 1e3,1e4,1e5,1e6 -replicates 20
//	sweep -protocols pll,angluin -ns 256,1024,4096 -engine count -ci 0.1
//
// The default engine is "auto": each cell resolves to the registry's
// recommendation for its protocol and population size — the per-agent
// engine for small populations, the phase-adaptive hybrid engine for
// large census-friendly ones — so a 10³..10⁸ grid is practical without
// thinking about engines. With -chart the mean-time curve is rendered
// against lg n per protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"popproto/internal/asciichart"
	"popproto/internal/cliflags"
	"popproto/internal/pp"
	"popproto/internal/sweep"
	"popproto/internal/table"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	protocols := fs.String("protocols", "pll", "comma-separated protocol registry keys (the protocol axis)")
	nsFlag := fs.String("ns", "1000,10000,100000", "comma-separated population sizes (the n axis; scientific notation like 1e5 is accepted)")
	msFlag := fs.String("ms", "", "comma-separated knowledge parameters for the PLL variants (empty = canonical ⌈lg n⌉)")
	engineName := cliflags.Engine(fs, "auto", "per-cell simulation engine")
	seed := cliflags.Seed(fs, 0, "per-cell ensemble base seed (0 = derived per cell, so each cell matches the seedless experiment with its spec)")
	replicates := cliflags.Replicates(fs, 20, "Monte-Carlo replicates per cell")
	ciTarget := cliflags.CI(fs)
	workers := cliflags.Workers(fs)
	maxParallel := fs.Float64("max-parallel", 0, "per-replicate cap in parallel time (0 = protocol default budget)")
	chart := fs.Bool("chart", false, "render an ASCII chart of mean time against n (log x) per protocol")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := pp.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	ns, err := parseInts(*nsFlag)
	if err != nil {
		return fmt.Errorf("-ns: %w", err)
	}
	ms, err := parseInts(*msFlag)
	if err != nil {
		return fmt.Errorf("-ms: %w", err)
	}

	spec := sweep.Spec{
		Protocols:       splitList(*protocols),
		Ns:              ns,
		Ms:              ms,
		Engine:          engine,
		Seed:            *seed,
		Replicates:      *replicates,
		CITarget:        *ciTarget,
		MaxParallelTime: *maxParallel,
	}
	canon, cells, err := sweep.Canonicalize(spec)
	if err != nil {
		return err
	}
	fmt.Printf("sweep: %d cells (%s × n∈{%s}), %d replicates per cell, engine %s\n",
		len(cells), strings.Join(canon.Protocols, ","), joinInts(canon.Ns), canon.Replicates, engine)

	res, err := sweep.Run(ctx, canon, sweep.Options{
		Workers: *workers,
		OnCellStart: func(c sweep.Cell) {
			fmt.Fprintf(os.Stderr, "[%3d/%d] %s n=%d engine=%s...\n",
				c.Index+1, len(cells), c.Protocol, c.N, c.Engine)
		},
	})
	if err != nil {
		return err
	}

	printGrid(res)
	printFits(res)
	if *chart {
		printCharts(res)
	}

	for _, o := range res.Outcomes {
		if o.Aggregates.Stabilized < o.Aggregates.Replicates {
			return fmt.Errorf("cell %s n=%d: %d of %d replicates did not stabilize",
				o.Protocol, o.N, o.Aggregates.Replicates-o.Aggregates.Stabilized, o.Aggregates.Replicates)
		}
	}
	return nil
}

// printGrid renders the per-cell table: mean parallel time with its 95%
// CI, tail quantiles, and the engine each cell resolved to.
func printGrid(res sweep.Result) {
	tbl := table.New("protocol", "n", "m", "engine", "reps", "mean t", "95% CI", "p50", "p90", "t / lg n")
	for _, o := range res.Outcomes {
		agg := o.Aggregates
		lg := math.Log2(float64(o.N))
		tbl.AddRowf(o.Protocol, o.N, o.M, o.Engine.String(), agg.Replicates,
			fmt.Sprintf("%.2f", agg.MeanParallelTime),
			fmt.Sprintf("[%.2f, %.2f]", agg.CILo, agg.CIHi),
			fmt.Sprintf("%.2f", agg.P50), fmt.Sprintf("%.2f", agg.P90),
			fmt.Sprintf("%.2f", agg.MeanParallelTime/lg))
	}
	fmt.Println()
	fmt.Print(tbl.Markdown())
}

// printFits renders the scaling summary: the Theorem 1 check as data.
func printFits(res sweep.Result) {
	if len(res.Summary.Fits) == 0 {
		fmt.Println("\nno scaling fit (need at least two distinct population sizes per protocol)")
		return
	}
	fmt.Println()
	for _, f := range res.Summary.Fits {
		label := f.Protocol
		if f.M != 0 {
			label = fmt.Sprintf("%s (m=%d)", f.Protocol, f.M)
		}
		fmt.Printf("%-16s time = %.3f·lg n %+.3f (R² %.3f over %d sizes, engines %s); log-log exponent %.3f (Θ(log n) ⇒ ≈ 0, Θ(n) ⇒ ≈ 1)\n",
			label, f.A, f.B, f.R2, f.Points, strings.Join(f.Engines, "+"), f.Exponent)
	}
}

// printCharts renders one mean-time-vs-n chart (log x) per protocol
// group.
func printCharts(res sweep.Result) {
	byGroup := make(map[string][]sweep.Outcome)
	var order []string
	for _, o := range res.Outcomes {
		k := fmt.Sprintf("%s m=%d", o.Protocol, o.M)
		if _, ok := byGroup[k]; !ok {
			order = append(order, k)
		}
		byGroup[k] = append(byGroup[k], o)
	}
	for _, k := range order {
		outcomes := byGroup[k]
		if len(outcomes) < 2 {
			continue
		}
		xs := make([]float64, len(outcomes))
		ys := make([]float64, len(outcomes))
		for i, o := range outcomes {
			xs[i] = float64(o.N)
			ys[i] = o.Aggregates.MeanParallelTime
		}
		fmt.Print(asciichart.Plot(
			[]asciichart.Series{{Name: k + " mean stabilization time", X: xs, Y: ys}},
			asciichart.Options{Width: 64, Height: 12, LogX: true, XLabel: "n", YLabel: "parallel time"},
		))
	}
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseInts parses a comma-separated integer list; scientific notation
// (1e5) is accepted because population axes are usually powers of ten.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			f, ferr := strconv.ParseFloat(part, 64)
			if ferr != nil || f != math.Trunc(f) || f > math.MaxInt32 {
				return nil, fmt.Errorf("not an integer: %q", part)
			}
			v = int(f)
		}
		out = append(out, v)
	}
	return out, nil
}

// joinInts renders an int list for the banner line.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
