package pp

import (
	"fmt"
	"strings"
)

// Runner is the observable surface shared by the simulation engines: the
// per-agent Simulator and the CensusSimulator that runs the three census
// engines (count, batch, hybrid) as mode policies. Experiments,
// commands and benchmarks program against this interface so the engine is a
// runtime choice (see Engine); everything a protocol's *observable* behavior
// defines — step counts, parallel time, leader census, stabilization,
// role-change accounting — is available on every engine with identical
// semantics.
//
// Agent identities are the one place the engines differ: the census engine
// tracks only state multiplicities, so its ForEach ids are synthetic (agents
// in the population protocol model are anonymous, so no observable quantity
// may depend on them). Operations that address individual agents (State,
// SetState, Interact, RunSchedule) are deliberately not part of Runner; they
// remain on Simulator for the safety experiments that need them.
type Runner[S comparable] interface {
	// N returns the population size.
	N() int
	// Steps returns the number of interactions executed so far.
	Steps() uint64
	// ParallelTime returns steps divided by n, the paper's time measure.
	ParallelTime() float64
	// Leaders returns the current number of agents whose output is Leader.
	Leaders() int
	// RoleChanges returns the cumulative number of agent output changes.
	RoleChanges() uint64
	// Census returns the multiset of current agent states.
	Census() map[S]int
	// ForEach calls f for every agent id and state. The census engine
	// synthesizes ids in census order.
	ForEach(f func(id int, state S))
	// Step executes one uniformly random interaction.
	Step()
	// RunSteps executes k uniformly random interactions.
	RunSteps(k uint64)
	// RunUntilLeaders runs until at most target leaders remain or maxSteps
	// interactions have been executed.
	RunUntilLeaders(target int, maxSteps uint64) (steps uint64, ok bool)
	// VerifyStable runs extra interactions and reports whether no output
	// changed during them.
	VerifyStable(extra uint64) bool
	// TrackStates enables recording of distinct states observed.
	TrackStates()
	// DistinctStates returns the number of distinct states observed since
	// TrackStates, or 0 if tracking is disabled.
	DistinctStates() int
	// CloneRunner returns an independent deep copy, including the scheduler
	// position.
	CloneRunner() Runner[S]
}

// Engine selects a simulation engine implementation.
type Engine uint8

const (
	// EngineAgent is the per-agent engine (Simulator): one state per agent,
	// one sampled interaction per step. Memory Θ(n); supports agent-indexed
	// operations and deterministic schedules.
	EngineAgent Engine = iota
	// The remaining three engines are named mode policies of one
	// CensusSimulator: one count per distinct state (memory Θ(states ever
	// observed) — tiny for small-state-space protocols such as PLL, Angluin
	// and Lottery, and the only practical representation for them at
	// n ≳ 10⁷), one transition memo, and three execution modes (see
	// HybridMode). Every mode samples the exact uniform-scheduler chain, so
	// the policies differ only in wall-clock cost, and each reproduces its
	// engine's chain bit for bit under a fixed seed. Protocols whose agents
	// carry poly(n) distinct values (MaxID) belong on EngineAgent.
	//
	// EngineCount interacts and skips: per-interaction sampling, and
	// geometric skipping of census-preserving runs once no-ops dominate.
	EngineCount
	// EngineBatch adds collision-free rounds of Θ(√n) interactions wherever
	// the census is concentrated enough for aggregate draws to amortize,
	// falling back to the count policy elsewhere — the fastest fixed
	// policy for small-state-space protocols at large n.
	EngineBatch
	// EngineHybrid hands the census between the three modes on measured
	// payoff (live support, reactive-pair mass, realized round versus skip
	// length). The best default for full O(log n)-time elections at large
	// n, whose phase structure no single mode wins.
	EngineHybrid
)

// EngineAuto is the pseudo-engine "auto": not a simulator, but a
// user-visible request to pick the engine per protocol and population
// size. It parses (ParseEngine) and travels through specs, but is never
// simulated: the registry resolves it to a concrete engine via
// Entry.RecommendedEngine before any population is constructed, so it is
// excluded from Engines and from Valid. The value is far from the
// declared engines so a future engine cannot collide with it.
const EngineAuto Engine = 0xff

// String implements fmt.Stringer; the values round-trip through ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineAgent:
		return "agent"
	case EngineCount:
		return "count"
	case EngineBatch:
		return "batch"
	case EngineHybrid:
		return "hybrid"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// Valid reports whether e is one of the declared engines.
func (e Engine) Valid() bool {
	for _, v := range Engines() {
		if e == v {
			return true
		}
	}
	return false
}

// ParseEngine parses the command-line spelling of an engine name,
// including the pseudo-engine "auto". The error for an unknown name
// enumerates the valid spellings, derived from Engines so it cannot
// drift as engines are added.
func ParseEngine(s string) (Engine, error) {
	if s == EngineAuto.String() {
		return EngineAuto, nil
	}
	engines := Engines()
	names := make([]string, len(engines))
	for i, e := range engines {
		if s == e.String() {
			return e, nil
		}
		names[i] = e.String()
	}
	return 0, fmt.Errorf("pp: unknown engine %q (valid engines: %s, %s)",
		s, strings.Join(names, ", "), EngineAuto)
}

// Engines returns all available engines, in declaration order.
func Engines() []Engine {
	return []Engine{EngineAgent, EngineCount, EngineBatch, EngineHybrid}
}

// EngineNames returns the command-line spellings of all engines, in
// declaration order — the single source for flag usage strings and
// catalogs, so help text cannot drift as engines are added.
func EngineNames() []string {
	engines := Engines()
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.String()
	}
	return names
}

// EngineChoices is EngineNames plus the pseudo-engine "auto" — the full
// set of spellings ParseEngine accepts, for flag usage strings and
// catalogs that present the user-facing choice.
func EngineChoices() []string {
	return append(EngineNames(), EngineAuto.String())
}

// NewRunner constructs a fresh population of n agents in the protocol's
// initial state on the selected engine, with the scheduler seeded by seed.
// All engines realize the same Markov chain: for a fixed engine a seed
// reproduces the run exactly, and across engines all observable
// distributions agree (see the engine-equivalence tests).
func NewRunner[S comparable](engine Engine, proto Protocol[S], n int, seed uint64) Runner[S] {
	switch engine {
	case EngineCount, EngineBatch, EngineHybrid:
		return newCensus(engine, proto, n, seed)
	case EngineAuto:
		// "auto" is resolved by the registry (per protocol and n) before
		// construction; reaching here is a programmer error, not a spec the
		// user can fix.
		panic("pp: EngineAuto must be resolved to a concrete engine before NewRunner")
	default:
		return NewSimulator(proto, n, seed)
	}
}

// All engines implement Runner.
var (
	_ Runner[bool] = (*Simulator[bool])(nil)
	_ Runner[bool] = (*CensusSimulator[bool])(nil)
)
