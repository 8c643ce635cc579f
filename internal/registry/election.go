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
// (each protocol's fmt.Stringer spelling where one exists). Censuses cost
// O(live states) per call: an election renders each state once per run,
// and TopCensus selects the largest entries without sorting the rest.
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
	// TopCensus returns the k most populous entries of Census in
	// SortedCensus order, and the number of states and agents beyond
	// them. It costs O(live states) and builds no map: each state is
	// rendered once per run. The returned slice is reused by the next
	// call.
	TopCensus(k int) (top []CensusEntry, omittedStates, omittedAgents int)
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

	// The census renderings: a slot per distinct rendered name, so
	// states whose renderings collide (a protocol whose String drops
	// fields) share one, and slotOf maps a state-table index to its slot
	// plus one (0: not rendered yet). Census walks fill each slot's count
	// and list the filled slots in live; top is TopCensus's result.
	slots   []censusSlot
	slotOf  []int32
	byName  map[string]int32
	live    []int32
	top     []CensusEntry
	collect func(id int, s S, c int) // adds one state to its slot's count
}

// censusSlot is one distinct rendering of the census and its count in
// the current walk.
type censusSlot struct {
	name  string
	count int
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
	e.walk()
	out := make(map[string]int, len(e.live))
	for _, i := range e.live {
		out[e.slots[i].name] = e.slots[i].count
	}
	return out
}

// TopCensus keeps the k best entries of one census walk in a bounded
// heap whose root is the worst kept entry (built once the first k are
// in), then sorts those k.
func (e *election[S]) TopCensus(k int) (top []CensusEntry, omittedStates, omittedAgents int) {
	e.walk()
	top = e.top[:0]
	for _, i := range e.live {
		entry := CensusEntry{State: e.slots[i].name, Count: e.slots[i].count}
		switch {
		case len(top) < k:
			if top = append(top, entry); len(top) == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDownWorst(top, j)
				}
			}
			continue
		case k > 0 && compareCensus(entry, top[0]) < 0:
			entry, top[0] = top[0], entry
			siftDownWorst(top, 0)
		}
		omittedStates++
		omittedAgents += entry.Count
	}
	slices.SortFunc(top, compareCensus)
	e.top = top
	return top, omittedStates, omittedAgents
}

// siftDownWorst moves h[j] down until it ranks at or below its children
// in SortedCensus order: the heap order under which h[0] is the worst
// entry of h.
func siftDownWorst(h []CensusEntry, j int) {
	for {
		worst, l := j, 2*j+1
		if l < len(h) && compareCensus(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := l + 1; r < len(h) && compareCensus(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == j {
			return
		}
		h[j], h[worst] = h[worst], h[j]
		j = worst
	}
}

// walk sums the current census into the slots' counts, listing the
// nonzero slots in e.live.
func (e *election[S]) walk() {
	for _, i := range e.live {
		e.slots[i].count = 0
	}
	e.live = e.live[:0]
	if e.collect == nil {
		e.collect = func(id int, s S, c int) {
			i := e.slot(id, s)
			if e.slots[i].count == 0 {
				e.live = append(e.live, i)
			}
			e.slots[i].count += c
		}
	}
	e.run.EachState(e.collect)
}

// slot returns the slot of state s, whose state-table index is id (-1:
// none, so the state is rendered on every call).
func (e *election[S]) slot(id int, s S) int32 {
	if id >= 0 && id < len(e.slotOf) && e.slotOf[id] != 0 {
		return e.slotOf[id] - 1
	}
	name := fmt.Sprint(s)
	i, ok := e.byName[name]
	if !ok {
		if e.byName == nil {
			e.byName = make(map[string]int32)
		}
		i = int32(len(e.slots))
		e.slots = append(e.slots, censusSlot{name: name})
		e.byName[name] = i
	}
	if id >= 0 {
		if id >= len(e.slotOf) {
			e.slotOf = append(e.slotOf, make([]int32, id+1-len(e.slotOf))...)
		}
		e.slotOf[id] = i + 1
	}
	return i
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
// TopCensus, which truncates a census in this order.
func SortedCensus(census map[string]int) []CensusEntry {
	entries := make([]CensusEntry, 0, len(census))
	for k, v := range census {
		entries = append(entries, CensusEntry{State: k, Count: v})
	}
	slices.SortFunc(entries, compareCensus)
	return entries
}

// compareCensus is SortedCensus's order: negative when a comes first.
func compareCensus(a, b CensusEntry) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return strings.Compare(a.State, b.State)
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
