package pp

import (
	"fmt"
	"maps"

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
// transitions. Like every engine knob, the rule affects only wall-clock
// cost, never the chain.
const (
	agentSpillStates    = batchDenseStatesHardMax
	agentSpillMinStates = 64
	agentSpillRate      = 32
)

// Simulator executes one population under a protocol, one state per
// agent. It owns a deterministic random source for the uniform scheduler
// and incremental counters (steps, leaders, role changes).
//
// Agents are 2-byte indexes into the run's state table, the one the
// census engine keeps, with a leader flag and a live count per state, so
// censuses cost O(live states), not O(n). Transitions go through the
// bounded transition memo the census engine uses behind its matrix. Once
// the spill rule fires (see agentSpillStates) the simulator converts, for
// the rest of the run, to one state value per agent and calls Transition
// on every interaction; the chain is the same either way.
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
	checked int // table size at the last spill check

	// Spilled representation: agents[i] is agent i's state. Non-nil
	// exactly once the simulator has spilled; the interned fields other
	// than proto and leaders are dropped then.
	agents []S

	seen map[S]struct{} // non-nil only when TrackStates was called
}

// NewSimulator creates a population of n agents, all in the protocol's
// initial state, with the scheduler seeded by seed. It panics if n < 1.
func NewSimulator[S comparable](proto Protocol[S], n int, seed uint64) *Simulator[S] {
	if n < 1 {
		panic(fmt.Sprintf("pp: population size %d < 1", n))
	}
	s := &Simulator[S]{
		n:          n,
		rand:       rng.New(seed),
		stateTable: newStateTable(proto),
		ids:        make([]uint16, n),
		checked:    agentSpillMinStates,
	}
	s.shift(int32(s.intern(proto.InitialState())), int64(n))
	return s
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
// (including current states). It costs a map insertion per state change
// and is used by the Lemma 3 / Table 3 state-count experiments.
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
	a2, b2 := lookup(&s.memo, &s.stateTable, s.n, a, b)
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
	k := len(s.states)
	if k > agentSpillStates ||
		k > agentSpillMinStates && uint64(k)*uint64(s.n) > agentSpillRate*s.steps {
		s.spill()
		return
	}
	s.checked = k
}

func (s *Simulator[S]) spill() {
	s.agents = make([]S, s.n)
	for i, id := range s.ids {
		s.agents[i] = s.states[id]
	}
	s.stateTable = stateTable[S]{proto: s.proto, leaders: s.leaders}
	s.ids, s.memo = nil, nil
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
// branch several continuations off one common prefix. The transition memo
// holds no chain state, so the clone starts without one.
func (s *Simulator[S]) Clone() *Simulator[S] {
	return &Simulator[S]{
		n:           s.n,
		rand:        s.rand.Clone(),
		steps:       s.steps,
		roleChanges: s.roleChanges,
		stateTable:  s.clone(),
		ids:         append([]uint16(nil), s.ids...),
		checked:     s.checked,
		agents:      append([]S(nil), s.agents...),
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
// classifier, e.g. the paper's groups V_X, V_B, V_A∩V_1, …. It works on
// either engine.
func CensusBy[S comparable, K comparable](sim Runner[S], classify func(S) K) map[K]int {
	c := make(map[K]int)
	sim.ForEach(func(_ int, st S) {
		c[classify(st)]++
	})
	return c
}
