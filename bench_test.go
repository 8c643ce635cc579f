// Package popproto's root benchmark suite: the claims table of the
// experiment harness at smoke-test scale (BenchmarkExperiments, one
// sub-benchmark per claim; `experiments -list` names them), interaction
// microbenchmarks, the engine head-to-head and large-n elections, and the
// ensemble, sweep and cluster-merge layers. Benchmarks report custom
// metrics (parallel time, live heap, fit slopes) alongside wall-clock
// cost.
package popproto

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/ensemble"
	"popproto/internal/harness"
	"popproto/internal/pp"
	"popproto/internal/registry"
	"popproto/internal/sweep"
)

// electionBench runs one full election per iteration on the selected
// engine and reports the mean parallel stabilization time.
func electionBench[S comparable](b *testing.B, engine pp.Engine, proto pp.Protocol[S], n int, budget uint64) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		sim := pp.NewRunner[S](engine, proto, n, uint64(i)+1)
		if _, ok := sim.RunUntilLeaders(1, budget); !ok {
			b.Fatalf("iteration %d did not stabilize", i)
		}
		total += sim.ParallelTime()
	}
	b.ReportMetric(total/float64(b.N), "parallel-time/op")
}

// liveHeapMiB measures the live heap after a forced GC, the memory figure
// that separates the engines at large n. keepAlive pins the simulator so
// its census is still live when the heap is measured. Callers stop the
// benchmark timer around the call (the forced GC must not count toward
// ns/op) and report the maximum over iterations after the loop.
func liveHeapMiB(keepAlive any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keepAlive)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkExperiments runs every row of the harness's claims table at
// smoke-test scale, one sub-benchmark per row, and fails on a failing
// verdict: the end-to-end cost of checking each claim. cmd/experiments
// produces the full-scale reports.
func BenchmarkExperiments(b *testing.B) {
	cfg := harness.DefaultConfig()
	cfg.Quick = true
	for _, e := range harness.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := e.Run(cfg); !res.Passed() {
					b.Fatalf("failing verdicts:\n%s", res.Markdown)
				}
			}
		})
	}
}

// --- Microbenchmarks: the cost of one interaction ---

func BenchmarkMicro_PLLTransition(b *testing.B) {
	p := core.NewForN(1024)
	x := p.InitialState()
	y := x
	for i := 0; i < b.N; i++ {
		x, y = p.Transition(x, y)
	}
	_, _ = x, y
}

func BenchmarkMicro_PLLStep(b *testing.B) {
	sim := pp.NewSimulator[core.State](core.NewForN(4096), 4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkMicro_PLLCountStep(b *testing.B) {
	sim := pp.NewCountSimulator[core.State](core.NewForN(4096), 4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkMicro_PLLBatchRun measures the batch engine's amortized
// per-interaction cost in round mode (Step() alone cannot: a single step
// is below the round threshold).
func BenchmarkMicro_PLLBatchRun(b *testing.B) {
	const n = 1 << 20
	sim := pp.NewBatchSimulator[core.State](core.NewForN(n), n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunSteps(1024)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sim.Steps()), "ns/interaction")
}

func BenchmarkMicro_SymmetricStep(b *testing.B) {
	sim := pp.NewSimulator[core.SymState](core.NewSymmetricForN(4096), 4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// --- BenchmarkPLL: the headline engine race -------------------------------

// BenchmarkPLL runs one full PLL election at n = 10⁷ per iteration on the
// census, batch and hybrid engines — the workload behind the Table 1/2
// sweeps — reporting parallel time and wall-clock per simulated interaction
// alongside ns/op. Election lengths are random and heavy-tailed (a run
// that falls through to BackUp spends an order of magnitude longer in the
// count-up plateau), and the engines draw independent realizations even
// from the same seed, so ns/op compares two different elections;
// ns/interaction is the realization-independent comparison, and
// BenchmarkPLLWindow below fixes the simulated work exactly. Run with
// -benchtime=1x for one election per engine.
func BenchmarkPLL(b *testing.B) {
	const n = 10_000_000
	for _, engine := range []pp.Engine{pp.EngineCount, pp.EngineBatch, pp.EngineHybrid} {
		b.Run(fmt.Sprintf("n=%d/engine=%s", n, engine), func(b *testing.B) {
			proto := core.NewForN(n)
			var totalPT, totalInts float64
			for i := 0; i < b.N; i++ {
				sim := pp.NewRunner[core.State](engine, proto, n, uint64(i)+1)
				if _, ok := sim.RunUntilLeaders(1, registry.LogBudget(n)); !ok {
					b.Fatalf("iteration %d did not stabilize", i)
				}
				totalPT += sim.ParallelTime()
				totalInts += float64(sim.Steps())
			}
			b.ReportMetric(totalPT/float64(b.N), "parallel-time/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/totalInts, "ns/interaction")
		})
	}
}

// BenchmarkPLLSeeds pins named realizations of the full n=10⁷ PLL election
// on the hybrid engine, so BENCH_*.json tracks unlucky-realization wall
// time rather than only the mean. Seed 1 deterministically draws the
// BackUp-heavy ~430-pt realization — measured at 44% reactive ordered
// pairs throughout its plateau, so its wall time is bound by applying
// ~4.3×10⁹ census changes (round mode at ~21 ns each), not by skippable
// no-op stretches. Seed 2 draws a typical direct election for contrast.
func BenchmarkPLLSeeds(b *testing.B) {
	const n = 10_000_000
	for _, seed := range []uint64{1, 2} {
		b.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(b *testing.B) {
			proto := core.NewForN(n)
			var totalPT, totalInts float64
			for i := 0; i < b.N; i++ {
				sim := pp.NewHybridSimulator[core.State](proto, n, seed)
				if _, ok := sim.RunUntilLeaders(1, registry.LogBudget(n)); !ok {
					b.Fatalf("seed %d did not stabilize", seed)
				}
				totalPT += sim.ParallelTime()
				totalInts += float64(sim.Steps())
			}
			b.ReportMetric(totalPT/float64(b.N), "parallel-time/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/totalInts, "ns/interaction")
		})
	}
}

// BenchmarkPLLWindow races the engines over identical simulated work: the
// first 40 units of parallel time of a PLL run at n = 10⁷ (4×10⁸
// interactions), the reaction-dense O(log n) window — epidemics, coin
// flips, count-up — that the batch engine's collision-free rounds exist
// for. Unlike full elections, the work here is fixed, so ns/op ratios are
// directly comparable across engines.
func BenchmarkPLLWindow(b *testing.B) {
	const n = 10_000_000
	const window = 40 * n
	for _, engine := range []pp.Engine{pp.EngineCount, pp.EngineBatch, pp.EngineHybrid} {
		b.Run(fmt.Sprintf("n=%d/engine=%s", n, engine), func(b *testing.B) {
			proto := core.NewForN(n)
			for i := 0; i < b.N; i++ {
				sim := pp.NewRunner[core.State](engine, proto, n, uint64(i)+1)
				sim.RunSteps(window)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*window), "ns/interaction")
		})
	}
}

// --- Engine comparison: per-agent vs census on identical workloads ---

// BenchmarkEngines_PLL races every engine on the Table 1 PLL workload
// across population sizes up to 10⁶, where the per-agent engine's Θ(n)
// state vector stops fitting in cache while the census stays resident.
func BenchmarkEngines_PLL(b *testing.B) {
	for _, n := range []int{1024, 65536, 1_000_000} {
		for _, engine := range pp.Engines() {
			b.Run(fmt.Sprintf("n=%d/engine=%s", n, engine), func(b *testing.B) {
				electionBench[core.State](b, engine, core.NewForN(n), n, registry.LogBudget(n))
			})
		}
	}
}

// BenchmarkEngines_Angluin shows the census engine's batched no-op
// skipping: the duel endgame is no-op dominated (two surviving leaders
// among n agents meet once every ~n²/2 interactions), so the census engine
// does Θ(n) work where the per-agent engine does Θ(n²).
func BenchmarkEngines_Angluin(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		for _, engine := range pp.Engines() {
			b.Run(fmt.Sprintf("n=%d/engine=%s", n, engine), func(b *testing.B) {
				electionBench[baseline.AngluinState](b, engine, baseline.Angluin{}, n, registry.LinearBudget(n))
			})
		}
	}
}

// --- Large-n workloads: infeasible on the per-agent engine ---

// xlGuard skips the 10⁸-agent cases unless explicitly requested: a full
// PLL election at n = 10⁸ is ~6×10⁹ census events (minutes of wall clock),
// though only tens of MiB of memory — the per-agent engine would need
// ≳1.6 GiB for the state vector alone before counting GC headroom.
func xlGuard(b *testing.B, n int) {
	b.Helper()
	if n > 10_000_000 && os.Getenv("POPPROTO_BENCH_XL") == "" {
		b.Skip("set POPPROTO_BENCH_XL=1 to run the 10⁸-agent case")
	}
}

func BenchmarkLargeN_PLL_CountEngine(b *testing.B) {
	for _, n := range []int{10_000_000, 100_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xlGuard(b, n)
			proto := core.NewForN(n)
			var total, maxHeap, maxLive float64
			for i := 0; i < b.N; i++ {
				sim := pp.NewCountSimulator[core.State](proto, n, uint64(i)+1)
				if _, ok := sim.RunUntilLeaders(1, registry.LogBudget(n)); !ok {
					b.Fatalf("iteration %d did not stabilize", i)
				}
				total += sim.ParallelTime()
				b.StopTimer()
				maxHeap = max(maxHeap, liveHeapMiB(sim))
				maxLive = max(maxLive, float64(sim.LiveStates()))
				b.StartTimer()
			}
			b.ReportMetric(maxHeap, "max-heap-MiB")
			b.ReportMetric(maxLive, "live-states")
			b.ReportMetric(total/float64(b.N), "parallel-time/op")
		})
	}
}

func BenchmarkLargeN_PLL_BatchEngine(b *testing.B) {
	for _, n := range []int{10_000_000, 100_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xlGuard(b, n)
			proto := core.NewForN(n)
			var total, maxHeap, maxLive float64
			for i := 0; i < b.N; i++ {
				sim := pp.NewBatchSimulator[core.State](proto, n, uint64(i)+1)
				if _, ok := sim.RunUntilLeaders(1, registry.LogBudget(n)); !ok {
					b.Fatalf("iteration %d did not stabilize", i)
				}
				total += sim.ParallelTime()
				b.StopTimer()
				maxHeap = max(maxHeap, liveHeapMiB(sim))
				maxLive = max(maxLive, float64(sim.LiveStates()))
				b.StartTimer()
			}
			b.ReportMetric(maxHeap, "max-heap-MiB")
			b.ReportMetric(maxLive, "live-states")
			b.ReportMetric(total/float64(b.N), "parallel-time/op")
		})
	}
}

// BenchmarkTable1_PLL_XL is the first Table 1 row at n = 10⁸: a full PLL
// election at the hundred-million-agent scale, practical only on the batch
// engine (set POPPROTO_BENCH_XL=1 to run).
func BenchmarkTable1_PLL_XL(b *testing.B) {
	const n = 100_000_000
	xlGuard(b, n)
	electionBench[core.State](b, pp.EngineBatch, core.NewForN(n), n, registry.LogBudget(n))
}

// BenchmarkLargeN_PLL_XXL is the first n=10⁹ PLL row: a full election at
// the billion-agent scale on the hybrid engine (set POPPROTO_BENCH_XL=1 to
// run). The census representation keeps the run inside a few hundred MiB —
// the per-agent engine's state vector alone would need ≳16 GiB — and the
// reaction-dense phases run in collision-free rounds whose aggregate cells
// amortize to a few ns per interaction.
func BenchmarkLargeN_PLL_XXL(b *testing.B) {
	const n = 1_000_000_000
	xlGuard(b, n)
	proto := core.NewForN(n)
	var total, maxHeap, maxLive float64
	for i := 0; i < b.N; i++ {
		sim := pp.NewHybridSimulator[core.State](proto, n, uint64(i)+1)
		if _, ok := sim.RunUntilLeaders(1, registry.LogBudget(n)); !ok {
			b.Fatalf("iteration %d did not stabilize", i)
		}
		total += sim.ParallelTime()
		b.StopTimer()
		maxHeap = max(maxHeap, liveHeapMiB(sim))
		maxLive = max(maxLive, float64(sim.LiveStates()))
		b.StartTimer()
	}
	b.ReportMetric(maxHeap, "max-heap-MiB")
	b.ReportMetric(maxLive, "live-states")
	b.ReportMetric(total/float64(b.N), "parallel-time/op")
}

func BenchmarkLargeN_Angluin_CountEngine(b *testing.B) {
	// The simulated interaction count here is Θ(n²) ≈ 10¹⁴–10¹⁶ — far past
	// anything executable one step at a time; batching makes it Θ(n) events.
	for _, n := range []int{10_000_000, 100_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xlGuard(b, n)
			var total, maxHeap float64
			for i := 0; i < b.N; i++ {
				sim := pp.NewCountSimulator[baseline.AngluinState](baseline.Angluin{}, n, uint64(i)+1)
				if _, ok := sim.RunUntilLeaders(1, registry.LinearBudget(n)); !ok {
					b.Fatalf("iteration %d did not stabilize", i)
				}
				total += sim.ParallelTime()
				b.StopTimer()
				maxHeap = max(maxHeap, liveHeapMiB(sim))
				b.StartTimer()
			}
			b.ReportMetric(maxHeap, "max-heap-MiB")
			b.ReportMetric(total/float64(b.N), "parallel-time/op")
		})
	}
}

// BenchmarkSweep_PLL_ScalingRow is the sweep-orchestration acceptance
// benchmark: the Theorem 1 scaling check as one sweep — PLL across
// n ∈ {10³, 10⁴, 10⁵} on the auto engine, 10 replicates per cell —
// reporting the fitted a·lg n + b slope, its R², and the log-log
// exponent as metrics. Comparing its wall clock against the three
// underlying ensembles run standalone bounds the sweep layer's
// orchestration overhead (expand, per-cell canonicalization, summary).
func BenchmarkSweep_PLL_ScalingRow(b *testing.B) {
	spec := sweep.Spec{
		Protocols:  []string{"pll"},
		Ns:         []int{1_000, 10_000, 100_000},
		Engine:     pp.EngineAuto,
		Seed:       42,
		Replicates: 10,
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(context.Background(), spec, sweep.Options{Workers: runtime.NumCPU()})
		if err != nil {
			b.Fatal(err)
		}
		fit, ok := res.Summary.Fit("pll", 0)
		if !ok {
			b.Fatal("sweep produced no scaling fit")
		}
		for _, o := range res.Outcomes {
			if o.Aggregates.Stabilized != o.Aggregates.Replicates {
				b.Fatalf("cell n=%d: %d/%d stabilized", o.N, o.Aggregates.Stabilized, o.Aggregates.Replicates)
			}
		}
		b.ReportMetric(fit.A, "log-slope/op")
		b.ReportMetric(fit.R2, "fit-r2/op")
		b.ReportMetric(fit.Exponent, "loglog-exponent/op")
	}
}

// BenchmarkEnsemble_Table1Row is the ensemble-executor acceptance
// benchmark: the PLL Table 1 row at n=10^5 with 50 replicates, run once
// serially and once over all cores. The workers=max case is what the
// harness's Table 1 and popprotod's /v1/experiments execute; comparing
// the two sub-benchmarks' wall clock shows the multi-core speedup
// (expect ≳ 3× at 8 cores — replication is embarrassingly parallel, the
// remainder is the aggregator and allocator).
func BenchmarkEnsemble_Table1Row(b *testing.B) {
	const n, replicates = 100_000, 50
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ensemble.Run(context.Background(), ensemble.Spec{
					Registry:   registry.Spec{Protocol: "pll", N: n, Engine: pp.EngineCount, Seed: 42},
					Replicates: replicates,
				}, ensemble.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				agg := res.Aggregates
				if agg.Stabilized != replicates {
					b.Fatalf("%d/%d replicates stabilized", agg.Stabilized, replicates)
				}
				b.ReportMetric(agg.MeanParallelTime, "parallel-time/op")
				b.ReportMetric((agg.CIHi-agg.CILo)/2, "ci95-half/op")
			}
		})
	}
}

// BenchmarkCluster_MergeOverhead isolates the coordinator's merge path:
// decoding one binary partial aggregate per canonical range and
// left-folding them into the final ensemble aggregates, for a
// 4096-replicate ensemble (256 ranges of 16). This is the entire
// per-range cost a distributed run adds on top of the simulation
// itself; it should be microseconds against replicate runtimes of
// milliseconds and up.
func BenchmarkCluster_MergeOverhead(b *testing.B) {
	const replicates = 4096
	ranges := ensemble.PlanRanges(replicates)
	payloads := make([][]byte, len(ranges))
	for i, rg := range ranges {
		p := ensemble.NewPartial(rg.Lo, rg.Hi)
		for r := rg.Lo; r < rg.Hi; r++ {
			t := 10 + 3*math.Sin(float64(r))
			p.Add(ensemble.Replicate{
				Rep:          r,
				Steps:        uint64(t * 1000),
				ParallelTime: t,
				Stabilized:   true,
			})
		}
		buf, err := p.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = buf
	}
	b.ReportMetric(float64(len(ranges)), "ranges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var folded *ensemble.Partial
		for _, buf := range payloads {
			p := new(ensemble.Partial)
			if err := p.UnmarshalBinary(buf); err != nil {
				b.Fatal(err)
			}
			if folded == nil {
				folded = p
			} else if err := folded.Merge(p); err != nil {
				b.Fatal(err)
			}
		}
		if agg := folded.Aggregates(replicates, false); agg.Replicates != replicates {
			b.Fatalf("fold produced %d replicates, want %d", agg.Replicates, replicates)
		}
	}
}
