package pp

import (
	"fmt"
	"maps"
	"slices"
	"unsafe"

	"popproto/internal/rng"
)

// The agent engine's spill rule: a Simulator stops interning and keeps
// one state value per agent once its state table has passed
// agentSpillStates states, or has passed agentSpillMinStates states while
// gaining more than agentSpillRate states per unit of parallel time. The
// table and its memo pay off only while a run's states are few and
// revisited (PLL visits O(log n) states, a few per time unit); a table
// that grows that fast (MaxID mints identifiers on nearly every
// interaction) costs a map insertion per interaction and saves no
// transitions. The rule counts only the states a run adds, not those a
// warm table brought (see Table). Like every engine knob, the rule
// affects only wall-clock cost, never the chain.
const (
	agentSpillStates    = batchDenseStatesHardMax
	agentSpillMinStates = 64
	agentSpillRate      = 32
)

// agentMemoPerAgent sizes the transition memo of a Table that has been
// handed back: cells per agent, at most 2^memoBits in all. Such a memo is
// made once per table, so its allocation is paid once for all the runs
// the table serves.
const agentMemoPerAgent = 64

// Table is the agent engine's state table, transition memo and agent
// array, which successive runs of one protocol on one population size
// may share, one run at a time: NewSimulatorOn borrows a table and
// Simulator.Release hands it back. A warm table has interned the states
// earlier runs met and memoized their transitions, so a run on it pays
// neither again; borrowing clears its census in O(live states). A table
// changes no chain: a run's outcome depends only on its seed.
type Table[S comparable] struct {
	stateTable[S]
	memo pairMemo
	ids  []uint16
}

// NewTable returns an empty table for runs of proto on n agents, with
// the memo of a single run (see newRunMemo) until its first Release. It
// panics if n < 1.
func NewTable[S comparable](proto Protocol[S], n int) *Table[S] {
	if n < 1 {
		panic(fmt.Sprintf("pp: population size %d < 1", n))
	}
	return &Table[S]{
		stateTable: newStateTable(proto),
		memo:       newRunMemo(n),
		ids:        make([]uint16, n),
	}
}

// Bytes approximates the memory t holds: its transition memo cells and
// its agent array.
func (t *Table[S]) Bytes() int {
	return len(t.memo)*int(unsafe.Sizeof(memoCell{})) + len(t.ids)*int(unsafe.Sizeof(uint16(0)))
}

// Simulator executes one population under a protocol, one state per
// agent. It owns a deterministic random source for the uniform scheduler
// and incremental counters (steps, leaders, role changes).
//
// Agents are 2-byte indexes into a state table of the kind the census
// engine keeps, with a leader flag and a live count per state, so
// censuses cost O(live states), not O(n). Transitions go through the
// bounded transition memo the census engine uses behind its matrix. The
// table and the memo come from a Table, fresh (NewSimulator) or borrowed
// (NewSimulatorOn); Release hands a borrowed one back for the next run.
// Once the spill rule fires (see agentSpillStates) the simulator
// converts, for the rest of the run, to one state value per agent, drops
// the table and calls Transition on every interaction; the chain is the
// same either way.
//
// A Simulator is not safe for concurrent use; run one per goroutine.
type Simulator[S comparable] struct {
	n     int
	rand  *rng.Source
	steps uint64

	roleChanges uint64

	// Interned representation: agent i is in state states[ids[i]].
	stateTable[S]
	ids     []uint16
	memo    pairMemo
	base    int       // table size when the run began
	checked int       // table size at the last spill check
	table   *Table[S] // the table Release hands back; nil in a clone or once spilled

	// Spilled representation: agents[i] is agent i's state. Non-nil
	// exactly once the simulator has spilled; the interned fields other
	// than proto and leaders are dropped then.
	agents []S

	seen map[S]struct{} // non-nil only when TrackStates was called
}

// NewSimulator creates a population of n agents, all in the protocol's
// initial state, with the scheduler seeded by seed, on a fresh Table. It
// panics if n < 1.
func NewSimulator[S comparable](proto Protocol[S], n int, seed uint64) *Simulator[S] {
	return NewSimulatorOn(NewTable(proto, n), seed)
}

// NewSimulatorOn is NewSimulator on the borrowed table t: the population
// has t's protocol and size. The simulator holds t's contents until
// Release; borrowing t again before then panics.
func NewSimulatorOn[S comparable](t *Table[S], seed uint64) *Simulator[S] {
	if t.ids == nil {
		panic("pp: table borrowed twice")
	}
	s := &Simulator[S]{
		n:          len(t.ids),
		rand:       rng.New(seed),
		stateTable: t.stateTable,
		ids:        t.ids,
		memo:       t.memo,
		table:      t,
	}
	*t = Table[S]{}
	s.clear()
	s.base = len(s.states)
	s.checked = s.base + agentSpillMinStates
	init := s.intern(s.proto.InitialState())
	for i := range s.ids {
		s.ids[i] = uint16(init)
	}
	s.shift(int32(init), int64(s.n))
	return s
}

// Release ends the run and hands back the table it was built on, or
// returns nil when that table cannot serve another run: the simulator
// spilled (and dropped it), is a clone (which owns a copy), or the table
// has grown past agentSpillStates states. A table handed back for the
// first time trades its single-run memo for one of agentMemoPerAgent
// cells per agent. The simulator must not be used afterwards.
func (s *Simulator[S]) Release() *Table[S] {
	t := s.table
	if t != nil && len(s.states) <= agentSpillStates {
		memo := s.memo
		if len(memo) < memoSize(agentMemoPerAgent*s.n) {
			memo = newPairMemo(agentMemoPerAgent * s.n)
		}
		*t = Table[S]{stateTable: s.stateTable, memo: memo, ids: s.ids}
	} else {
		t = nil
	}
	*s = Simulator[S]{}
	return t
}

// N returns the population size.
func (s *Simulator[S]) N() int { return s.n }

// Steps returns the number of interactions executed so far.
func (s *Simulator[S]) Steps() uint64 { return s.steps }

// ParallelTime returns steps divided by n, the paper's time measure.
func (s *Simulator[S]) ParallelTime() float64 {
	return float64(s.steps) / float64(s.n)
}

// Leaders returns the current number of agents whose output is Leader.
func (s *Simulator[S]) Leaders() int { return s.leaders }

// RoleChanges returns the cumulative number of agent output changes
// (L→F or F→L) observed since construction. A configuration sequence is
// stable exactly while this counter does not move.
func (s *Simulator[S]) RoleChanges() uint64 { return s.roleChanges }

// State returns agent i's current state.
func (s *Simulator[S]) State(i int) S {
	if s.agents != nil {
		return s.agents[i]
	}
	return s.states[s.ids[i]]
}

// SetState overwrites agent i's state, keeping the leader census coherent.
// It is intended for constructing specific configurations in tests and
// experiments (e.g. the Bstart configurations of Definition 3).
func (s *Simulator[S]) SetState(i int, st S) {
	if s.agents != nil {
		if s.proto.Output(s.agents[i]) == Leader {
			s.leaders--
		}
		if s.proto.Output(st) == Leader {
			s.leaders++
		}
		s.agents[i] = st
		return
	}
	from, to := int32(s.ids[i]), int32(s.intern(st))
	s.shift(from, -1)
	s.shift(to, 1)
	s.ids[i] = uint16(to)
	s.spillIfFull()
}

// ForEach calls f for every agent id and state, in agent order.
func (s *Simulator[S]) ForEach(f func(id int, state S)) {
	if s.agents != nil {
		for i, st := range s.agents {
			f(i, st)
		}
		return
	}
	for i, id := range s.ids {
		f(i, s.states[id])
	}
}

// TrackStates enables recording of every distinct agent state ever observed
// (including current states). It costs a map insertion per state change,
// leaves the chain unchanged, and is used by the Lemma 3 / Table 3
// state-count experiments. Only the agent engine records visited states:
// the census engines' aggregate rounds never see individual states.
func (s *Simulator[S]) TrackStates() {
	if s.seen != nil {
		return
	}
	s.seen = make(map[S]struct{}, 1024)
	s.EachState(func(_ int, st S, _ int) { s.seen[st] = struct{}{} })
}

// DistinctStates returns the number of distinct agent states observed since
// TrackStates was enabled, or 0 if tracking is disabled.
func (s *Simulator[S]) DistinctStates() int { return len(s.seen) }

// LiveStates returns the number of distinct states currently present: the
// table's live count, or an O(n) census once the simulator has spilled.
func (s *Simulator[S]) LiveStates() int {
	if s.agents != nil {
		return len(s.Census())
	}
	return s.live
}

// Interact applies one interaction between initiator i and responder j and
// updates the censuses. It does not advance the step counter; Step and
// RunSchedule do. It panics if i == j or either index is out of range.
func (s *Simulator[S]) Interact(i, j int) {
	if i == j {
		panic(fmt.Sprintf("pp: self-interaction of agent %d", i))
	}
	if s.agents != nil {
		s.interactSpilled(i, j)
		return
	}
	a, b := int32(s.ids[i]), int32(s.ids[j])
	a2, b2 := lookup(s.memo, &s.stateTable, a, b)
	if a2 != a {
		s.move(i, a, a2)
	}
	if b2 != b {
		s.move(j, b, b2)
	}
	s.spillIfFull()
}

// move relocates agent id from state index from to to.
func (s *Simulator[S]) move(id int, from, to int32) {
	s.ids[id] = uint16(to)
	s.shift(from, -1)
	s.shift(to, 1)
	if s.isLeader[from] != s.isLeader[to] {
		s.roleChanges++
	}
	if s.seen != nil {
		s.seen[s.states[to]] = struct{}{}
	}
}

// spillIfFull applies the spill rule whenever the state table has grown
// past the size of the last check. The check is split so it inlines.
func (s *Simulator[S]) spillIfFull() {
	if len(s.states) > s.checked {
		s.spillIfHungry()
	}
}

func (s *Simulator[S]) spillIfHungry() {
	k := len(s.states) - s.base // the states this run added
	if k > agentSpillStates ||
		k > agentSpillMinStates && uint64(k)*uint64(s.n) > agentSpillRate*s.steps {
		s.spill()
		return
	}
	s.checked = len(s.states)
}

func (s *Simulator[S]) spill() {
	s.agents = make([]S, s.n)
	for i, id := range s.ids {
		s.agents[i] = s.states[id]
	}
	s.stateTable = stateTable[S]{proto: s.proto, leaders: s.leaders}
	s.ids, s.memo, s.table = nil, nil, nil
}

func (s *Simulator[S]) interactSpilled(i, j int) {
	p, q := s.agents[i], s.agents[j]
	p2, q2 := s.proto.Transition(p, q)
	if p2 != p {
		s.applyChange(i, p, p2)
	}
	if q2 != q {
		s.applyChange(j, q, q2)
	}
}

func (s *Simulator[S]) applyChange(id int, old, now S) {
	ro, rn := s.proto.Output(old), s.proto.Output(now)
	if ro != rn {
		s.roleChanges++
		if rn == Leader {
			s.leaders++
		} else {
			s.leaders--
		}
	}
	s.agents[id] = now
	if s.seen != nil {
		s.seen[now] = struct{}{}
	}
}

// Step executes one uniformly random interaction. It panics if n < 2
// (a single agent can never interact).
func (s *Simulator[S]) Step() {
	i, j := s.rand.Pair(s.n)
	s.Interact(i, j)
	s.steps++
}

// RunSteps executes k uniformly random interactions.
func (s *Simulator[S]) RunSteps(k uint64) {
	for ; k > 0; k-- {
		s.Step()
	}
}

// RunUntilLeaders runs random interactions until at most target leaders
// remain or maxSteps total interactions have been executed. It returns the
// total step count at return and whether the target was reached.
//
// For every protocol in this repository the leader count is monotone
// non-increasing and followers never regain leadership, so reaching one
// leader is exactly the stabilization condition of the leader election
// problem (the configuration is in S_P of Section 2).
func (s *Simulator[S]) RunUntilLeaders(target int, maxSteps uint64) (steps uint64, ok bool) {
	if s.n == 1 {
		return s.steps, s.leaders <= target
	}
	for s.leaders > target {
		if s.steps >= maxSteps {
			return s.steps, false
		}
		s.Step()
	}
	return s.steps, true
}

// VerifyStable runs extra random interactions and reports whether any
// agent's output changed during them. A true result is evidence (not proof)
// that the configuration reached is in the safe set S_P.
func (s *Simulator[S]) VerifyStable(extra uint64) bool {
	if s.n == 1 {
		return true
	}
	before := s.roleChanges
	s.RunSteps(extra)
	return s.roleChanges == before
}

// Clone returns an independent deep copy of the simulator, including the
// scheduler position: the original and the clone produce identical
// futures until their schedules diverge. Cloning is how experiments
// branch several continuations off one common prefix. The clone owns
// copies of the state table and the memo, and Release never hands them
// to a pool.
func (s *Simulator[S]) Clone() *Simulator[S] {
	return &Simulator[S]{
		n:           s.n,
		rand:        s.rand.Clone(),
		steps:       s.steps,
		roleChanges: s.roleChanges,
		stateTable:  s.clone(),
		ids:         slices.Clone(s.ids),
		memo:        slices.Clone(s.memo),
		base:        s.base,
		checked:     s.checked,
		agents:      slices.Clone(s.agents),
		seen:        maps.Clone(s.seen),
	}
}

// CloneRunner implements Runner.
func (s *Simulator[S]) CloneRunner() Runner[S] { return s.Clone() }

// Census returns the multiset of current agent states.
func (s *Simulator[S]) Census() map[S]int {
	if s.agents == nil {
		return s.census()
	}
	c := make(map[S]int)
	for _, st := range s.agents {
		c[st]++
	}
	return c
}

// EachState calls f once per live state with its multiplicity. id is the
// state's index in the state table, stable for the run, or -1 once the
// simulator has spilled and keeps no table.
func (s *Simulator[S]) EachState(f func(id int, state S, count int)) {
	if s.agents == nil {
		s.eachLive(f)
		return
	}
	for st, c := range s.Census() {
		f(-1, st, c)
	}
}

// CensusBy aggregates the current configuration of sim by an arbitrary
// classifier, e.g. the paper's groups V_X, V_B, V_A∩V_1, …, at the cost
// of one EachState walk: O(live states) on every engine that keeps a
// state table. Counting the agents that satisfy a predicate is
// CensusBy(sim, pred)[true].
func CensusBy[S comparable, K comparable](sim Runner[S], classify func(S) K) map[K]int {
	c := make(map[K]int)
	sim.EachState(func(_ int, st S, n int) {
		c[classify(st)] += n
	})
	return c
}
