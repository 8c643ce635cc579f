package registry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"popproto/internal/pp"
)

// Election is the type-erased runner surface: everything observable about
// a running protocol without its state type parameter. It mirrors the
// read-and-run subset of pp.Runner[S], with censuses rendered as strings
// (each protocol's fmt.Stringer spelling where one exists). Censuses cost
// O(live states) per call: an election renders, quotes and ranks each
// state's name once per state table, and TopCensus and QuotedTopCensus
// select the largest entries by integer compares without sorting the
// rest.
//
// An election on the agent engine borrows a warm state table, with its
// transition memo and rendered state names, from the pool of its spec
// minus seed and engine, so a run pays for interning, memo misses and
// rendering only where no earlier run of that spec already did. Release
// hands the table back for the next election; an election never released
// simply keeps its table. Any use of an election after Release panics,
// and the selections it returned (TopCensus, QuotedTopCensus) must not be
// read after it; the quoted names QuotedTopCensus returns stay valid.
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
	// rendered once per state table, and the selection compares counts
	// and name ranks, not strings. The returned slice is reused by the
	// next call.
	TopCensus(k int) (top []CensusEntry, omittedStates, omittedAgents int)
	// QuotedTopCensus selects the same k states as TopCensus, as slots in
	// the byte order of their names: quoted[top[i].Slot] is the i-th
	// state's name as encoding/json quotes a string. quoted is a prefix of
	// a slice that is only ever appended to, shared by every run on the
	// same state table, so it may be kept and read on any goroutine after
	// the election has moved on or been released. top is reused by the
	// next call.
	QuotedTopCensus(k int) (top []CensusSlot, quoted []string, omittedStates, omittedAgents int)
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
	// Release ends the election and hands its warm state table, if it
	// borrowed one that can serve another run, back to its spec's pool.
	// Call it after the last read; any later use panics.
	Release()
}

// election adapts a concrete pp.Runner[S] to the erased Election surface.
// Its description is rendered by the entry's describe on the first
// Description call, so a run that never asks for it formats nothing.
type election[S comparable] struct {
	spec     Spec
	describe func(Spec) string
	desc     string
	target   int
	proto    pp.Protocol[S]
	run      pp.Runner[S] // nil once released
	names    *censusNames[S]
	pool     poolKey
	warm     *warm[S] // what Release hands back; nil off the agent engine
}

// censusNames are an election's census renderings: a slot per distinct
// rendered name, so states whose renderings collide (a protocol whose
// String drops fields) share one, and slotOf maps a state-table index to
// its slot plus one (0: not rendered yet). Each slot's name is quoted
// once into quoted, which is only ever appended to, so the prefix a
// recorded frame keeps is never written again; byRank lists the slots in
// the byte order of their names, and each slot holds its rank there, so
// selection compares integers. Census walks fill each slot's count and
// list the filled slots in live; kept and top are the selections'
// results. Keyed by state-table index, they are pooled with the table;
// a census-engine election keeps its own.
type censusNames[S comparable] struct {
	slots   []censusSlot
	slotOf  []int32
	byName  map[string]int32
	quoted  []string
	byRank  []int32
	live    []int32
	kept    []CensusSlot
	top     []CensusEntry
	collect func(id int, s S, c int) // adds one state to its slot's count
}

// censusSlot is one distinct rendering of the census, its rank in the
// byte order of the names, and its count in the current walk.
type censusSlot struct {
	name  string
	rank  int32
	count int
}

// CensusSlot is one state of a QuotedTopCensus selection: its slot, the
// index of its quoted name, and its count.
type CensusSlot struct {
	Slot  int
	Count int
}

// wrap closes over the state type S at registration time: the one generic
// instantiation per catalog entry from which every erased call dispatches.
// On the agent engine it borrows a warm table from the spec's pool, or
// makes a fresh one.
func wrap[S comparable](spec Spec, proto pp.Protocol[S]) Election {
	entry, _ := Lookup(spec.Protocol)
	e := &election[S]{
		spec:     spec,
		describe: entry.describe,
		target:   entry.Target,
		proto:    proto,
	}
	if spec.Engine != pp.EngineAgent {
		e.run = pp.NewRunner(spec.Engine, proto, spec.N, spec.Seed)
		e.names = new(censusNames[S])
		return e
	}
	e.pool = poolKey{protocol: spec.Protocol, n: spec.N, m: spec.M}
	w, _ := borrow(e.pool).(*warm[S])
	if w == nil {
		w = &warm[S]{table: pp.NewTable(proto, spec.N), names: new(censusNames[S])}
	}
	e.run, e.names, e.warm = pp.NewSimulatorOn(w.table, spec.Seed), w.names, w
	return e
}

// runner returns the election's runner, or panics once it is released.
func (e *election[S]) runner() pp.Runner[S] {
	if e.run == nil {
		panic(fmt.Sprintf("registry: %s election used after Release", e.spec.Protocol))
	}
	return e.run
}

// Release implements Election. The runner and the census names are
// dropped first, so a later call panics in runner.
func (e *election[S]) Release() {
	sim, _ := e.runner().(*pp.Simulator[S])
	w := e.warm
	e.run, e.names, e.warm = nil, nil, nil
	if w != nil && sim.Release() != nil {
		giveBack(e.pool, w)
	}
}

func (e *election[S]) Key() string           { e.runner(); return e.spec.Protocol }
func (e *election[S]) Target() int           { e.runner(); return e.target }
func (e *election[S]) N() int                { return e.runner().N() }
func (e *election[S]) Steps() uint64         { return e.runner().Steps() }
func (e *election[S]) ParallelTime() float64 { return e.runner().ParallelTime() }
func (e *election[S]) Leaders() int          { return e.runner().Leaders() }
func (e *election[S]) RunSteps(k uint64)     { e.runner().RunSteps(k) }

func (e *election[S]) RunUntilLeaders(target int, maxSteps uint64) (uint64, bool) {
	return e.runner().RunUntilLeaders(target, maxSteps)
}

func (e *election[S]) VerifyStable(extra uint64) bool { return e.runner().VerifyStable(extra) }

func (e *election[S]) Description() string {
	e.runner()
	if e.desc == "" {
		e.desc = e.describe(e.spec)
	}
	return e.desc
}

// Census walks the runner's live states, O(live states) on an engine with
// a state table, and renders each state once per table.
func (e *election[S]) Census() map[string]int {
	c := e.names
	c.walk(e.runner())
	out := make(map[string]int, len(c.live))
	for _, i := range c.live {
		out[c.slots[i].name] = c.slots[i].count
	}
	return out
}

// TopCensus is the selection of QuotedTopCensus in SortedCensus order.
func (e *election[S]) TopCensus(k int) (top []CensusEntry, omittedStates, omittedAgents int) {
	c := e.names
	omittedStates, omittedAgents = c.selectTop(e.runner(), k)
	slices.SortFunc(c.kept, c.compare)
	top = c.top[:0]
	for _, kept := range c.kept {
		top = append(top, CensusEntry{State: c.slots[kept.Slot].name, Count: kept.Count})
	}
	c.top = top
	return top, omittedStates, omittedAgents
}

func (e *election[S]) QuotedTopCensus(k int) (top []CensusSlot, quoted []string, omittedStates, omittedAgents int) {
	c := e.names
	omittedStates, omittedAgents = c.selectTop(e.runner(), k)
	slices.SortFunc(c.kept, func(a, b CensusSlot) int {
		return cmp.Compare(c.slots[a.Slot].rank, c.slots[b.Slot].rank)
	})
	return c.kept, c.quoted, omittedStates, omittedAgents
}

// selectTop walks run's census and keeps the k best slots in c.kept, in
// a bounded heap whose root is the worst kept slot (built once the first
// k are in), and returns the number of states and agents beyond them.
func (c *censusNames[S]) selectTop(run pp.Runner[S], k int) (omittedStates, omittedAgents int) {
	c.walk(run)
	kept := c.kept[:0]
	for _, i := range c.live {
		slot := CensusSlot{Slot: int(i), Count: c.slots[i].count}
		switch {
		case len(kept) < k:
			if kept = append(kept, slot); len(kept) == k {
				for j := k/2 - 1; j >= 0; j-- {
					c.siftDownWorst(kept, j)
				}
			}
			continue
		case k > 0 && c.compare(slot, kept[0]) < 0:
			slot, kept[0] = kept[0], slot
			c.siftDownWorst(kept, 0)
		}
		omittedStates++
		omittedAgents += slot.Count
	}
	c.kept = kept
	return omittedStates, omittedAgents
}

// compare is SortedCensus's order on slots: negative when a comes first.
// Names are unique per slot, so their ranks order ties as the names do.
func (c *censusNames[S]) compare(a, b CensusSlot) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(c.slots[a.Slot].rank, c.slots[b.Slot].rank)
}

// siftDownWorst moves h[j] down until it ranks at or below its children
// in SortedCensus order: the heap order under which h[0] is the worst
// slot of h.
func (c *censusNames[S]) siftDownWorst(h []CensusSlot, j int) {
	for {
		worst, l := j, 2*j+1
		if l < len(h) && c.compare(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := l + 1; r < len(h) && c.compare(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == j {
			return
		}
		h[j], h[worst] = h[worst], h[j]
		j = worst
	}
}

// walk sums run's current census into the slots' counts, listing the
// nonzero slots in c.live.
func (c *censusNames[S]) walk(run pp.Runner[S]) {
	for _, i := range c.live {
		c.slots[i].count = 0
	}
	c.live = c.live[:0]
	if c.collect == nil {
		c.collect = func(id int, s S, n int) {
			i := c.slot(id, s)
			if c.slots[i].count == 0 {
				c.live = append(c.live, i)
			}
			c.slots[i].count += n
		}
	}
	run.EachState(c.collect)
}

// slot returns the slot of state s, whose state-table index is id (-1:
// none, so the state is rendered on every call).
func (c *censusNames[S]) slot(id int, s S) int32 {
	if id >= 0 && id < len(c.slotOf) && c.slotOf[id] != 0 {
		return c.slotOf[id] - 1
	}
	name := fmt.Sprint(s)
	i, ok := c.byName[name]
	if !ok {
		i = c.add(name)
	}
	if id >= 0 {
		if id >= len(c.slotOf) {
			c.slotOf = append(c.slotOf, make([]int32, id+1-len(c.slotOf))...)
		}
		c.slotOf[id] = i + 1
	}
	return i
}

// add makes the slot of a name met for the first time: it quotes the
// name, and binary search finds its rank, renumbering the slots after it.
func (c *censusNames[S]) add(name string) int32 {
	if c.byName == nil {
		c.byName = make(map[string]int32)
	}
	i := int32(len(c.slots))
	at, _ := slices.BinarySearchFunc(c.byRank, name, func(j int32, name string) int {
		return strings.Compare(c.slots[j].name, name)
	})
	c.slots = append(c.slots, censusSlot{name: name})
	c.byRank = slices.Insert(c.byRank, at, i)
	for r := at; r < len(c.byRank); r++ {
		c.slots[c.byRank[r]].rank = int32(r)
	}
	c.quoted = append(c.quoted, quote(name))
	c.byName[name] = i
	return i
}

// quote returns name as encoding/json encodes a string.
func quote(name string) string {
	data, err := json.Marshal(name)
	if err != nil {
		panic(err) // a string always marshals
	}
	return string(data)
}

func (e *election[S]) LiveStates() int { return e.runner().LiveStates() }

func (e *election[S]) HybridStats() (pp.HybridStats, bool) {
	// Every census engine carries the controller, but only the hybrid
	// engine's results report its telemetry.
	run := e.runner()
	if e.spec.Engine != pp.EngineHybrid {
		return pp.HybridStats{}, false
	}
	return run.(*pp.CensusSimulator[S]).Stats(), true
}

func (e *election[S]) LeaderID() int {
	run := e.runner()
	if e.spec.Engine != pp.EngineAgent {
		return -1
	}
	id := -1
	run.ForEach(func(agent int, s S) {
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
