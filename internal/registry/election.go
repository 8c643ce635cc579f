package registry

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"popproto/internal/pp"
)

// Election is the type-erased runner surface: everything observable about
// a running protocol without its state type parameter. It mirrors the
// read-and-run subset of pp.Runner[S], with censuses rendered as strings
// (each protocol's fmt.Stringer spelling where one exists).
type Election interface {
	// Key returns the registry key the election was built from.
	Key() string
	// Description returns a one-line human description including the
	// derived protocol parameters.
	Description() string
	// Target returns the leader count at which the run counts as
	// stabilized (1 for elections, 0 for the epidemic coverage workload).
	Target() int
	// N returns the population size.
	N() int
	// Steps returns the number of interactions executed so far.
	Steps() uint64
	// ParallelTime returns steps divided by n, the paper's time measure.
	ParallelTime() float64
	// Leaders returns the current number of agents whose output is Leader.
	Leaders() int
	// RunSteps executes k uniformly random interactions.
	RunSteps(k uint64)
	// RunUntilLeaders runs until at most target leaders remain or maxSteps
	// interactions have been executed.
	RunUntilLeaders(target int, maxSteps uint64) (steps uint64, ok bool)
	// VerifyStable runs extra interactions and reports whether no output
	// changed during them.
	VerifyStable(extra uint64) bool
	// Census returns the multiset of current agent states, keyed by the
	// state's string rendering.
	Census() map[string]int
	// LiveStates returns the number of distinct states currently present.
	LiveStates() int
	// LeaderID returns the id of the first agent whose output is Leader.
	// Only the per-agent engine has real agent identities; on the census
	// engine (whose ids are synthetic) and when no leader exists it
	// returns -1.
	LeaderID() int
	// HybridStats returns the hybrid engine's controller telemetry (mode
	// occupancy, handovers) and true when the underlying runner is the
	// hybrid engine; other engines report false.
	HybridStats() (pp.HybridStats, bool)
}

// election adapts a concrete pp.Runner[S] to the erased Election surface.
type election[S comparable] struct {
	key    string
	desc   string
	target int
	engine pp.Engine
	proto  pp.Protocol[S]
	run    pp.Runner[S]
	names  []string // rendered states by state-table index, filled on use
}

// wrap closes over the state type S at registration time: the one generic
// instantiation per catalog entry from which every erased call dispatches.
func wrap[S comparable](spec Spec, proto pp.Protocol[S], desc string) Election {
	entry, _ := Lookup(spec.Protocol)
	return &election[S]{
		key:    spec.Protocol,
		desc:   desc,
		target: entry.Target,
		engine: spec.Engine,
		proto:  proto,
		run:    pp.NewRunner(spec.Engine, proto, spec.N, spec.Seed),
	}
}

func (e *election[S]) Key() string           { return e.key }
func (e *election[S]) Description() string   { return e.desc }
func (e *election[S]) Target() int           { return e.target }
func (e *election[S]) N() int                { return e.run.N() }
func (e *election[S]) Steps() uint64         { return e.run.Steps() }
func (e *election[S]) ParallelTime() float64 { return e.run.ParallelTime() }
func (e *election[S]) Leaders() int          { return e.run.Leaders() }
func (e *election[S]) RunSteps(k uint64)     { e.run.RunSteps(k) }

func (e *election[S]) RunUntilLeaders(target int, maxSteps uint64) (uint64, bool) {
	return e.run.RunUntilLeaders(target, maxSteps)
}

func (e *election[S]) VerifyStable(extra uint64) bool { return e.run.VerifyStable(extra) }

// Census walks the runner's live states, O(live states) on an engine with
// a state table, and renders each state once per run.
func (e *election[S]) Census() map[string]int {
	out := make(map[string]int, e.run.LiveStates())
	e.run.EachState(func(id int, s S, c int) {
		// Distinct states may collide after rendering (a protocol whose
		// String drops fields); summing keeps the census a true multiset.
		out[e.name(id, s)] += c
	})
	return out
}

// name renders state s, whose state-table index is id (-1: none).
func (e *election[S]) name(id int, s S) string {
	if id < 0 {
		return fmt.Sprint(s)
	}
	if id >= len(e.names) {
		e.names = append(e.names, make([]string, id+1-len(e.names))...)
	}
	if e.names[id] == "" {
		e.names[id] = fmt.Sprint(s)
	}
	return e.names[id]
}

func (e *election[S]) LiveStates() int { return e.run.LiveStates() }

func (e *election[S]) HybridStats() (pp.HybridStats, bool) {
	// Every census engine carries the controller, but only the hybrid
	// engine's results report its telemetry.
	if e.engine != pp.EngineHybrid {
		return pp.HybridStats{}, false
	}
	return e.run.(*pp.CensusSimulator[S]).Stats(), true
}

func (e *election[S]) LeaderID() int {
	if e.engine != pp.EngineAgent {
		return -1
	}
	id := -1
	e.run.ForEach(func(agent int, s S) {
		if id == -1 && e.proto.Output(s) == pp.Leader {
			id = agent
		}
	})
	return id
}

// CensusEntry is one state of a sorted census.
type CensusEntry struct {
	State string
	Count int
}

// SortedCensus orders a census deterministically — largest count first,
// ties by state key — the canonical ordering shared by reports, logs and
// the service's census truncation.
func SortedCensus(census map[string]int) []CensusEntry {
	entries := make([]CensusEntry, 0, len(census))
	for k, v := range census {
		entries = append(entries, CensusEntry{State: k, Count: v})
	}
	slices.SortFunc(entries, func(a, b CensusEntry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return strings.Compare(a.State, b.State)
	})
	return entries
}

// CensusString renders a census deterministically in SortedCensus order,
// for logs and reports.
func CensusString(census map[string]int) string {
	var out strings.Builder
	for i, e := range SortedCensus(census) {
		if i > 0 {
			out.WriteByte(' ')
		}
		fmt.Fprintf(&out, "%s:%d", e.State, e.Count)
	}
	return out.String()
}
