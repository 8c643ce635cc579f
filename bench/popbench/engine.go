package main

import (
	"fmt"
	"time"

	"popproto/internal/pp"
	"popproto/internal/registry"
)

// The engine workloads advance fixed-work PLL windows: windowChunks
// parallel-time units from the initial configuration, in 1-pt RunSteps
// chunks on one goroutine. Every engine simulates the same number of
// interactions per window, so ns/interaction compares across engines and
// commits; only internal/pp, internal/core and the registry's
// constructor are on the path.
//
// A run times 80 to 300 chunks, so its tail latency is the p90, with
// eight or more chunks beyond it. Chunks of a tenth of a unit gave over a
// thousand, but their p99 then measured the host's stalls of a few
// milliseconds, not the engine, and spread over half its median from
// run to run.
const (
	engineN      = 1_000_000
	windowChunks = 20
	// minWindows windows always run, past the budget if need be; they
	// are the ones the digest covers.
	minWindows  = 3
	engineTailQ = 0.90
)

// engineOf maps an engine workload to its engine.
var engineOf = map[string]pp.Engine{
	"engine-count":  pp.EngineCount,
	"engine-batch":  pp.EngineBatch,
	"engine-hybrid": pp.EngineHybrid,
}

func engineSpec(e pp.Engine, seed uint64) registry.Spec {
	return registry.Spec{Protocol: "pll", N: engineN, Engine: e, Seed: seed}
}

// engineSetup is one set-up unit: construct the simulator and run one
// parallel-time unit of warm-up, which fills its lazily built transition
// tables. The warm-up is the same chain every time, so only set-up cost
// varies.
func engineSetup(e pp.Engine) error {
	el, err := registry.New(engineSpec(e, 1))
	if err != nil {
		return err
	}
	el.RunSteps(engineN)
	return nil
}

func runEngine(p *pass, e pp.Engine) error {
	var st engineStats
	var chunkMs []float64
	var setupTime time.Duration
	mem := startMem()
	start := time.Now()
	windows := 0
	for ; p.keepGoing(start, windows, minWindows); windows++ {
		d, err := p.setupDue(start)
		if err != nil {
			return err
		}
		setupTime += d
		run := fmt.Sprintf("window-%d", windows)
		wid := p.tr.open("engine.window", 0, run)
		observed := st.observeTime
		t0 := time.Now()
		el, err := registry.New(engineSpec(e, mix(p.seed, 1, uint64(windows))))
		if err != nil {
			return err
		}
		t1 := time.Now()
		p.tr.record("registry.New", wid, run, t0, t1)
		st.newMs = append(st.newMs, ms(t1.Sub(t0)))
		for c := 0; c < windowChunks; c++ {
			c0 := time.Now()
			el.RunSteps(engineN)
			d := time.Since(c0)
			p.tr.record("pp.RunSteps", wid, run, c0, c0.Add(d))
			chunkMs = append(chunkMs, ms(d))
			st.chunk(d, engineN)
			if p.tr != nil {
				st.observe(el)
			}
		}
		p.tr.close(wid)
		st.opTime += time.Since(t0) - (st.observeTime - observed)
		st.steps += el.Steps()
		st.ops++
		st.hybrid(el)

		census := el.Census()
		total := 0
		for _, c := range census {
			total += c
		}
		ok := p.check(total == engineN, "%s window %d: census sums to %d, want %d", p.workload, windows, total, engineN)
		ok = p.check(el.Leaders() >= 1, "%s window %d: %d leaders", p.workload, windows, el.Leaders()) && ok
		ok = p.check(el.Steps() == windowChunks*engineN, "%s window %d: %d steps", p.workload, windows, el.Steps()) && ok
		if !ok {
			p.failed += windowChunks
		}
		if windows < minWindows {
			p.digestLine("window %d steps=%d leaders=%d census=%s",
				windows, el.Steps(), el.Leaders(), registry.CensusString(census))
		}
	}
	wall := time.Since(start) - setupTime
	if err := p.setupRest(); err != nil {
		return err
	}
	p.attempted += windows * windowChunks
	p.latencyMetrics(windows*windowChunks, wall, chunkMs, engineTailQ)
	if p.tr != nil {
		mem.done(p, windows)
		st.fill(p)
	}
	return nil
}
