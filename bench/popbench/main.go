// Command popbench is the repository's end-to-end benchmark: one command
// that runs the simulator's workloads, checks every output for
// correctness, and prints every metric of BENCHMARK.json with its unit.
//
// Usage, from the repository root (bench/run.sh builds popprotod and
// popbench into the build directory, then runs popbench):
//
//	bash bench/run.sh -seed S -out DIR            # every workload, DIR/results.json
//	bash bench/run.sh -seed S -runs 3 -out DIR    # three runs each (seeds S, S+1, S+2)
//	bash bench/run.sh -trace 1 -out DIR           # per-layer metrics and DIR/trace.json
//	bash bench/run.sh --workload serve-write --seed 4 --seconds 15 --trace 0
//	bash bench/run.sh -compare A/results.json B/results.json
//
// Each workload run executes in a child process of its own, one at a
// time, so peak RSS and GC state belong to that workload. A run measures
// for -seconds; every input is derived from -seed. The last line of the
// output is one JSON object: correct, attempted, failed, and the
// end-to-end metrics (per-layer metrics with -trace 1).
//
// A traced run (-trace 1) makes an untraced pass and a traced pass of
// half the time each: end-to-end numbers always come from the untraced
// pass, per-layer numbers from spans the benchmark records around its
// calls into each layer's public functions (and /metrics deltas for the
// server's layers), and the difference between the passes is the tracing
// overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// runResult is one workload run, as a child reports it and results.json
// stores it.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest"`
	Setup     []float64          `json:"setup_s_samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Details   map[string]float64 `json:"details,omitempty"`
	SelfMs    map[string]float64 `json:"self_ms,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	runs      int
	out       string
	popprotod string
	work      string
	self      string
}

func main() {
	var cfg config
	var trace int
	var compare, child, setup bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&cfg.seconds, "seconds", 0, "measured seconds per workload run (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and trace.json")
	flag.IntVar(&cfg.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, …")
	flag.StringVar(&cfg.out, "out", "", "directory for results.json and trace.json (default: the work directory)")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files: -compare A.json B.json")
	flag.StringVar(&cfg.popprotod, "popprotod", "", "popprotod binary to benchmark")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "popbench-work"), "scratch directory for stores and outputs")
	flag.BoolVar(&child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&setup, "setup", false, "internal: run one set-up unit of -workload and exit")
	flag.Parse()
	cfg.trace = trace == 1

	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg.self = self
	if cfg.work, err = filepath.Abs(cfg.work); err != nil {
		fatal(err)
	}

	switch {
	case setup:
		if err := runSetup(cfg.workload); err != nil {
			fatal(err)
		}
	case child:
		res := runWorkload(cfg)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.json files"))
		}
		bench, err := loadBench(benchPath)
		if err != nil {
			fatal(err)
		}
		a, err := loadResults(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := loadResults(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compareResults(os.Stdout, bench, a, b) {
			os.Exit(1)
		}
	default:
		if err := runParent(cfg); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "popbench:", err)
	os.Exit(1)
}

// runSetup is the body of a set-up child.
func runSetup(workload string) error {
	if e, ok := engineOf[workload]; ok {
		return engineSetup(e)
	}
	if workload == "theorem1-sweep" {
		return sweepSetup()
	}
	return fmt.Errorf("workload %q has no set-up child", workload)
}

// runWorkload is the body of a workload child: an untraced pass, and with
// tracing a traced pass after it, each on half the time.
func runWorkload(cfg config) runResult {
	budget := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		budget /= 2
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, cfg.seed))
	newP := func(traced bool) *pass {
		return newPass(cfg.workload, cfg.seed, budget, traced, cfg.self, cfg.popprotod, dir)
	}
	p := newP(false)
	execute(p)
	res := runResult{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Traced:    cfg.trace,
		Attempted: p.attempted,
		Failed:    p.failed,
		Problems:  p.problems,
		Digest:    p.digestHex(),
		Setup:     p.setup,
		Metrics:   p.metrics,
		Details:   p.details,
	}
	if cfg.trace {
		t := newP(true)
		execute(t)
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Problems = append(res.Problems, t.problems...)
		if t.digestHex() != res.Digest {
			res.Problems = append(res.Problems, fmt.Sprintf("traced pass digest %s differs from untraced %s", t.digestHex(), res.Digest))
		}
		res.Layers = t.layers
		// The median op, not ops_per_s: a half-length traced pass of
		// theorem1-sweep spends most of its time on the fixed large row, so
		// its throughput mixes ops differently from the untraced pass.
		res.Layers["trace.overhead_frac"] = ratio(t.metrics["op_p50_ms"], p.metrics["op_p50_ms"]) - 1
		for k, v := range t.details {
			res.Details[k] = v
		}
		res.Spans = t.tr.all()
		res.SelfMs = selfTimes(res.Spans)
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "popbench:", err)
	}
	return res
}

// execute runs one pass of its workload; an error that stops the pass
// (a server that does not boot, say) is a failed check.
func execute(p *pass) {
	if err := os.RemoveAll(p.work); err != nil {
		p.check(false, "%v", err)
		return
	}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		p.check(false, "%v", err)
		return
	}
	var err error
	switch p.workload {
	case "theorem1-sweep":
		err = runSweepWorkload(p)
	case "serve-write":
		err = runServeWrite(p)
	case "serve-mixed":
		err = runServeMixed(p)
	default:
		e, ok := engineOf[p.workload]
		if !ok {
			err = fmt.Errorf("unknown workload %q", p.workload)
			break
		}
		err = runEngine(p, e)
	}
	if err != nil {
		p.check(false, "%s: %v", p.workload, err)
		p.failed++
	}
}

// runParent runs the selected workloads, each run in a child process,
// prints every metric, and writes results.json (and trace.json).
func runParent(cfg config) error {
	bench, err := loadBench(benchPath)
	if err != nil {
		return err
	}
	if cfg.seconds == 0 {
		cfg.seconds = bench.RunSeconds
	}
	names := bench.workloadNames()
	if cfg.workload != "all" {
		if !slices.Contains(names, cfg.workload) {
			return fmt.Errorf("unknown workload %q (BENCHMARK.json lists %v)", cfg.workload, names)
		}
		names = []string{cfg.workload}
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	if cfg.popprotod == "" {
		return fmt.Errorf("-popprotod is required (bench/run.sh builds it and passes it)")
	}
	defs := bench.defs(cfg.trace)
	results := resultsFile{Host: readHost(cfg.seed, cfg.work), Seconds: cfg.seconds, Workloads: map[string][]runResult{}}
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}

	for _, name := range names {
		for r := 0; r < cfg.runs; r++ {
			res, err := spawn(cfg, name, cfg.seed+uint64(r))
			if err != nil {
				return err
			}
			if err := checkNames(bench.EndToEnd, res.Metrics); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if cfg.trace {
				if err := checkNames(bench.PerLayer, res.Layers); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			results.Workloads[name] = append(results.Workloads[name], res)
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			report(res, defs, cfg.trace)
		}
		// The result line carries each metric's median over the runs;
		// with several workloads its keys are workload/metric.
		for _, d := range defs {
			var xs []float64
			for _, res := range results.Workloads[name] {
				if cfg.trace {
					xs = append(xs, res.Layers[d.Name])
				} else {
					xs = append(xs, res.Metrics[d.Name])
				}
			}
			key := d.Name
			if len(names) > 1 {
				key = name + "/" + d.Name
			}
			final.Metrics[key] = map[string]any{"value": median(xs), "unit": d.Unit}
		}
	}

	out := cfg.out
	if out == "" {
		out = cfg.work
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if cfg.trace {
		if err := writeTrace(filepath.Join(out, "trace.json"), results); err != nil {
			return err
		}
		for _, runs := range results.Workloads {
			for i := range runs {
				runs[i].Spans = nil // trace.json holds them
			}
		}
	}
	if cfg.out != "" {
		if err := writeJSON(filepath.Join(out, "results.json"), results); err != nil {
			return err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs one workload run in a child process and returns its result,
// with the child's peak RSS unless the workload measured its own server.
func spawn(cfg config, workload string, seed uint64) (runResult, error) {
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-popprotod", cfg.popprotod, "-work", cfg.work}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	cmd := command(cfg.self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("%s run (seed %d): %w", workload, seed, err)
	}
	var res runResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return runResult{}, fmt.Errorf("%s run (seed %d): %w", workload, seed, err)
	}
	if _, ok := res.Metrics["peak_rss_mib"]; !ok {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.Metrics["peak_rss_mib"] = float64(ru.Maxrss) / 1024
		}
	}
	return res, nil
}

// command is exec.Command for a process this one starts and waits for.
// The kernel kills it should this process die first, so a crashed run
// leaves no server or child behind.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// report prints one line per metric, then the run's checks and digest.
func report(res runResult, defs []metricDef, layers bool) {
	values := res.Metrics
	if layers {
		values = res.Layers
	}
	for _, d := range defs {
		fmt.Printf("%-15s %-36s %14.6g %s\n", res.Workload, d.Name, values[d.Name], d.Unit)
	}
	fmt.Printf("%-15s %-36s %14s seed=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, "digest", res.Digest, res.Seed, res.Correct, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("%-15s problem: %s\n", res.Workload, p)
	}
}

// writeTrace writes the traced runs' spans, per-name self times, per-layer
// numbers and tracing overhead.
func writeTrace(path string, results resultsFile) error {
	type traced struct {
		Seed         uint64             `json:"seed"`
		OverheadFrac float64            `json:"tracing_overhead_frac"`
		SelfMs       map[string]float64 `json:"self_ms"`
		Layers       map[string]float64 `json:"layers"`
		Details      map[string]float64 `json:"details"`
		Spans        []span             `json:"spans"`
	}
	doc := struct {
		Host      hostInfo            `json:"host"`
		Workloads map[string][]traced `json:"workloads"`
	}{results.Host, map[string][]traced{}}
	for name, runs := range results.Workloads {
		for _, r := range runs {
			doc.Workloads[name] = append(doc.Workloads[name], traced{
				Seed: r.Seed, OverheadFrac: r.Layers["trace.overhead_frac"],
				SelfMs: r.SelfMs, Layers: r.Layers, Details: r.Details, Spans: r.Spans,
			})
		}
	}
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
