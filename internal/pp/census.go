package pp

import (
	"fmt"
	"maps"
	"math"

	"popproto/internal/rng"
)

// Tuning constants of the census engine's batched no-op skipping and
// transition memo. They affect only wall-clock cost, never the sampled
// distribution: every path below realizes the exact uniform-scheduler
// Markov chain.
const (
	// countNoopStreak is the number of consecutive sampled no-op
	// interactions after which the engine switches to batched skipping
	// (scaled up beyond the reactive-pair index's membership cap; see
	// skipEntryStreak). Streak observation conditions only on the past, so
	// the switch is distribution-preserving (strong Markov property).
	countNoopStreak = 64
	// countBatchExitSkip floors the skip event's break-even length (see
	// skipBreakEven): a batched event that skipped fewer than break-even
	// many no-ops signals a reaction-dense census; fall back to
	// per-interaction sampling until the next long no-op streak.
	countBatchExitSkip = 8
	// overflowMemoMax caps the map memo that holds the transition outcomes
	// of pairs past the dense matrix's capacity. On overflow the whole map
	// is dropped and refilled with the current working set.
	overflowMemoMax = 1 << 20
	// denseEmpty marks an unfilled cell of the dense transition matrix.
	// Cells pack the two outcome indexes as uint16s, halving the matrix's
	// cache footprint versus a naive pair of int32s.
	denseEmpty = ^uint32(0)
)

// pairOutcome is the memoized result of one ordered state-pair transition,
// as dense indices. i2 == i and j2 == j encodes a census-preserving pair.
type pairOutcome struct {
	i2, j2 int32
}

// CensusSimulator executes one population under a protocol on the census
// (configuration-as-multiset) representation: one integer count per
// distinct live state instead of one state per agent. Because agents are
// anonymous and transitions depend only on states, sampling the interacting
// *state pair* with the multiplicity-weighted probabilities of the uniform
// scheduler realizes exactly the same Markov chain as Simulator — with
// memory Θ(states ever observed) instead of Θ(n) (the dense tables are
// append-only and never compacted), which is what makes populations of
// 10⁷–10⁹ agents practical for the small-state-space protocols of this
// repository. Protocols whose runs visit Θ(n) distinct states (MaxID's
// random identifiers) lose that advantage and belong on Simulator.
//
// One census is advanced in three execution modes (see HybridMode):
// collision-free rounds of Θ(√n) interactions, per-interaction sampling
// through a Fenwick cumulative-weight table (O(log k) per draw and per
// update, k = states ever observed), and geometric skipping of runs of
// census-preserving interactions. A mode controller picks the mode of every
// advance under a policy fixed at construction, one per census engine:
// EngineCount interacts and skips, EngineBatch adds rounds, EngineHybrid
// hands over on measured payoff. Every mode samples the exact chain, so a
// policy trades only wall-clock time; each one nevertheless reproduces its
// engine's chain bit for bit for a given seed, because stored results are
// served by a key that names the engine.
//
// Transition outcomes are memoized by dense index pair in one matrix shared
// by all modes; pairs past its capacity (state-hungry protocols) go through
// a bounded map.
//
// A CensusSimulator is not safe for concurrent use; run one per goroutine.
type CensusSimulator[S comparable] struct {
	proto Protocol[S]
	n     int
	rand  *rng.Source
	steps uint64

	// Dense state table: index i holds state states[i] with multiplicity
	// counts[i] (zero once all agents have left the state).
	states   []S
	counts   []int64
	isLeader []bool
	index    map[S]int
	fen      []int64 // 1-based Fenwick tree over counts
	fenTop   int     // largest power of two <= len(states)
	fenDirty bool    // round mode defers Fenwick maintenance (see ensureFen)
	live     int     // number of states with counts[i] > 0

	leaders     int
	roleChanges uint64

	seen map[S]struct{} // non-nil only when TrackStates was called

	// Round policy (see TuneRounds). expRound caches √(πn/8) ≈ 0.627·√n,
	// the asymptotic expected round length of the birthday law over
	// ordered pairs of distinct agents.
	minRoundN int
	maxLive   int
	expRound  float64
	// survival[t] = P[first t interactions are collision-free], built
	// lazily, immutable afterwards (clones share it).
	survival []float64
	// order holds all state indexes, kept roughly sorted by count desc. It
	// is chain state: it decides which state gets which conditional draw
	// of a round, so a clone must inherit it.
	order []int32

	// Mode controller (see controller.go).
	policy     Engine                       // EngineCount, EngineBatch or EngineHybrid
	handover   func(HybridStats) HybridMode // nil = the policy's own rules
	mode       HybridMode                   // mode of the previous advance
	noopStreak int                          // consecutive sampled no-ops in interact mode
	noopRounds int                          // consecutive all-no-op rounds
	shortSkips int                          // consecutive skips below break-even

	lastRoundLen      uint64
	lastRoundReactive uint64
	lastSkip          uint64
	skipEntries       uint64
	skipEvents        uint64
	modeSteps         [3]uint64 // interactions covered per mode, indexed by HybridMode
	handovers         uint64    // mode switches between consecutive advances

	derived
}

// derived holds everything rebuilt on demand from the census: the
// transition memo, the reactive-pair index and per-event scratch. None of
// it is chain state — rebuilding it consumes no randomness and every
// consumer returns bit-identical results whether it is warm or cold — so
// Clone drops it wholesale.
type derived struct {
	// Transition memo: dense[i*denseStride+j] packs the outcome state
	// indexes of the ordered pair (i, j); overflow holds pairs past the
	// matrix's capacity.
	dense       []uint32
	denseStride int
	overflow    map[uint64]pairOutcome

	ridx reactiveIndex // incremental reactive-pair index (see ridx.go)

	// Reactive-pair enumeration scratch (collectReactivePairs).
	liveIdx []int32  // occupied state indexes
	pairI   []int32  // reactive ordered pairs: initiator state index
	pairJ   []int32  // reactive ordered pairs: responder state index
	pairW   []uint64 // cumulative reactive weights, aligned with pairI/pairJ

	roundScratch // see rounds.go
}

// newCensus creates a census of n agents, all in the protocol's initial
// state, advanced under the given engine's policy.
func newCensus[S comparable](policy Engine, proto Protocol[S], n int, seed uint64) *CensusSimulator[S] {
	if n < 1 {
		panic(fmt.Sprintf("pp: population size %d < 1", n))
	}
	c := &CensusSimulator[S]{
		proto:     proto,
		n:         n,
		rand:      rng.New(seed),
		index:     make(map[S]int, 64),
		fen:       make([]int64, 1, 64), // fen[0] is the unused Fenwick root
		minRoundN: batchRoundMinN,
		expRound:  math.Sqrt(math.Pi * float64(n) / 8),
		policy:    policy,
		mode:      ModeInteract,
	}
	c.add(c.stateIndex(proto.InitialState()), int64(n))
	return c
}

// NewCountSimulator creates a census under the EngineCount policy:
// per-interaction sampling plus geometric no-op skipping. It panics if
// n < 1.
func NewCountSimulator[S comparable](proto Protocol[S], n int, seed uint64) *CensusSimulator[S] {
	return newCensus(EngineCount, proto, n, seed)
}

// NewBatchSimulator creates a census under the EngineBatch policy:
// collision-free rounds wherever they amortize, with the count policy's
// paths as fallback. It panics if n < 1.
func NewBatchSimulator[S comparable](proto Protocol[S], n int, seed uint64) *CensusSimulator[S] {
	return newCensus(EngineBatch, proto, n, seed)
}

// NewHybridSimulator creates a census under the EngineHybrid policy: the
// payoff-adaptive mode controller. It panics if n < 1.
func NewHybridSimulator[S comparable](proto Protocol[S], n int, seed uint64) *CensusSimulator[S] {
	return newCensus(EngineHybrid, proto, n, seed)
}

// N returns the population size.
func (c *CensusSimulator[S]) N() int { return c.n }

// Steps returns the number of interactions executed so far, including
// those processed in aggregate or skipped in batch.
func (c *CensusSimulator[S]) Steps() uint64 { return c.steps }

// ParallelTime returns steps divided by n, the paper's time measure.
func (c *CensusSimulator[S]) ParallelTime() float64 {
	return float64(c.steps) / float64(c.n)
}

// Leaders returns the current number of agents whose output is Leader.
func (c *CensusSimulator[S]) Leaders() int { return c.leaders }

// RoleChanges returns the cumulative number of agent output changes
// (L→F or F→L) observed since construction.
func (c *CensusSimulator[S]) RoleChanges() uint64 { return c.roleChanges }

// LiveStates returns the number of distinct states with nonzero count —
// the k that governs the engine's per-event cost and memory.
func (c *CensusSimulator[S]) LiveStates() int { return c.live }

// Count returns the current multiplicity of state s.
func (c *CensusSimulator[S]) Count(s S) int {
	if i, ok := c.index[s]; ok {
		return int(c.counts[i])
	}
	return 0
}

// Census returns the multiset of current agent states.
func (c *CensusSimulator[S]) Census() map[S]int {
	m := make(map[S]int, c.live)
	for i, cnt := range c.counts {
		if cnt > 0 {
			m[c.states[i]] = int(cnt)
		}
	}
	return m
}

// ForEach calls f once per agent. Agents in the population protocol model
// are anonymous, so the census engine does not track identities: ids are
// synthetic (consecutive, grouped by state in census order) and not stable
// across calls that interleave with interactions.
func (c *CensusSimulator[S]) ForEach(f func(id int, state S)) {
	id := 0
	for i, cnt := range c.counts {
		st := c.states[i]
		for k := int64(0); k < cnt; k++ {
			f(id, st)
			id++
		}
	}
}

// TrackStates enables recording of every distinct agent state observed from
// now on (including current states). Tracking itself is free — the census
// already materializes every state it meets — but aggregate rounds do not
// attribute observations, so the controller leaves round mode while it is
// active.
func (c *CensusSimulator[S]) TrackStates() {
	if c.seen != nil {
		return
	}
	c.seen = make(map[S]struct{}, len(c.states))
	for i, cnt := range c.counts {
		if cnt > 0 {
			c.seen[c.states[i]] = struct{}{}
		}
	}
}

// DistinctStates returns the number of distinct agent states observed since
// TrackStates was enabled, or 0 if tracking is disabled.
func (c *CensusSimulator[S]) DistinctStates() int { return len(c.seen) }

// --- Fenwick cumulative-weight table ------------------------------------

// stateIndex returns the dense index of s, registering it on first sight.
func (c *CensusSimulator[S]) stateIndex(s S) int {
	if i, ok := c.index[s]; ok {
		return i
	}
	i := len(c.states)
	c.states = append(c.states, s)
	c.counts = append(c.counts, 0)
	c.isLeader = append(c.isLeader, c.proto.Output(s) == Leader)
	c.index[s] = i
	// Extend the Fenwick table: position p covers the count range
	// (p − lowbit(p), p], so the new cell must be seeded with the already-
	// accumulated prefix of that range (all zeros only when lowbit(p) = 1).
	p := i + 1
	var init int64
	if lb := p & (-p); lb > 1 {
		init = c.fenPrefix(p-1) - c.fenPrefix(p-lb)
	}
	c.fen = append(c.fen, init)
	if c.fenTop == 0 {
		c.fenTop = 1
	} else if c.fenTop*2 <= len(c.states) {
		c.fenTop *= 2
	}
	return i
}

func (c *CensusSimulator[S]) fenAdd(i int, d int64) {
	for p := i + 1; p < len(c.fen); p += p & (-p) {
		c.fen[p] += d
	}
}

// fenPrefix returns the total count of states with index < p.
func (c *CensusSimulator[S]) fenPrefix(p int) int64 {
	var s int64
	for ; p > 0; p -= p & (-p) {
		s += c.fen[p]
	}
	return s
}

// fenSample maps target ∈ [0, Σcounts) to the state whose block of the
// cumulative layout contains it, also returning the block's start offset.
func (c *CensusSimulator[S]) fenSample(target int64) (idx int, before int64) {
	pos := 0
	rem := target
	for bit := c.fenTop; bit > 0; bit >>= 1 {
		if next := pos + bit; next < len(c.fen) && c.fen[next] <= rem {
			rem -= c.fen[next]
			pos = next
		}
	}
	return pos, target - rem
}

// ensureFen rebuilds the Fenwick table after round mode deferred its
// maintenance, so the per-interaction and skip paths see a coherent
// cumulative-weight table. The check is split from the rebuild so it
// inlines into the per-interaction path.
func (c *CensusSimulator[S]) ensureFen() {
	if c.fenDirty {
		c.rebuildFen()
	}
}

func (c *CensusSimulator[S]) rebuildFen() {
	if cap(c.fen) < len(c.counts)+1 {
		c.fen = make([]int64, len(c.counts)+1)
	}
	c.fen = c.fen[:len(c.counts)+1]
	c.fen[0] = 0
	copy(c.fen[1:], c.counts)
	for i := 1; i < len(c.fen); i++ {
		if j := i + i&(-i); j < len(c.fen) {
			c.fen[j] += c.fen[i]
		}
	}
	c.fenTop = 1
	for c.fenTop*2 <= len(c.states) {
		c.fenTop *= 2
	}
	c.fenDirty = false
}

// add shifts the multiplicity of state index i by d, keeping the Fenwick
// table, the live-state counter, the leader census and the reactive-pair
// index coherent. The index hook runs before the mutation so it observes
// the old count directly (see ridxUpdate).
func (c *CensusSimulator[S]) add(i int, d int64) {
	c.bump(int32(i), d)
	c.fenAdd(i, d)
}

// bump is add without Fenwick maintenance, for round mode (see ensureFen).
// The reactive-pair index, by contrast, is maintained inline — under the
// round's maintenance meter — so a warm index survives sparse rounds and
// the next skip entry costs no rebuild.
func (c *CensusSimulator[S]) bump(i int32, d int64) {
	old := c.counts[i]
	if c.ridx.valid {
		c.ridxUpdate(int(i), old, old+d)
	}
	c.counts[i] = old + d
	switch {
	case old == 0 && d > 0:
		c.live++
	case old+d == 0 && d < 0:
		c.live--
	}
	if c.isLeader[i] {
		c.leaders += int(d)
	}
}

// moveOne relocates one agent from state index `from` to `to`.
func (c *CensusSimulator[S]) moveOne(from, to int) {
	if from == to {
		return
	}
	c.bump(int32(from), -1)
	c.fenAdd(from, -1)
	c.bump(int32(to), 1)
	c.fenAdd(to, 1)
	if c.isLeader[from] != c.isLeader[to] {
		c.roleChanges++
	}
	if c.seen != nil {
		c.seen[c.states[to]] = struct{}{}
	}
}

// --- The transition memo -------------------------------------------------

// outcome returns the transition outcome for the ordered state index pair
// (i, j). Transitions are pure and dense indices are never reassigned, so
// outcomes are memoized by index pair: a hit in the dense matrix costs one
// array load; pairs it declines go through the bounded overflow map.
func (c *CensusSimulator[S]) outcome(i, j int32) (int32, int32) {
	if out, ok := c.denseOutcome(int(i), int(j)); ok {
		return out.i2, out.j2
	}
	key := uint64(uint32(i))<<32 | uint64(uint32(j))
	out, ok := c.overflow[key]
	if !ok {
		out = c.transition(int(i), int(j))
		if c.overflow == nil || len(c.overflow) >= overflowMemoMax {
			c.overflow = make(map[uint64]pairOutcome, 1024)
		}
		c.overflow[key] = out
	}
	return out.i2, out.j2
}

// transition evaluates the protocol on the ordered state index pair,
// registering any new successor state.
func (c *CensusSimulator[S]) transition(i, j int) pairOutcome {
	a, b := c.states[i], c.states[j]
	a2, b2 := c.proto.Transition(a, b)
	i2, j2 := i, j
	if a2 != a {
		i2 = c.stateIndex(a2)
	}
	if b2 != b {
		j2 = c.stateIndex(b2)
	}
	return pairOutcome{int32(i2), int32(j2)}
}

// denseOutcome is the dense memo lookup-or-fill. ok=false declines the
// pair (matrix outgrown, see denseEligible).
func (c *CensusSimulator[S]) denseOutcome(i, j int) (pairOutcome, bool) {
	if i >= c.denseStride || j >= c.denseStride {
		if !c.denseEligible() {
			return pairOutcome{}, false
		}
		c.growDense()
	}
	idx := i*c.denseStride + j
	if v := c.dense[idx]; v != denseEmpty {
		return pairOutcome{int32(v >> 16), int32(v & 0xffff)}, true
	}
	out := c.transition(i, j)
	// Cells pack the outcome indexes as uint16s; an outcome landing beyond
	// the packable range (a very deep state table) is returned uncached
	// rather than corrupted.
	if out.i2 < 0xffff && out.j2 < 0xffff {
		c.dense[idx] = uint32(out.i2)<<16 | uint32(out.j2)
	}
	return out, true
}

// growDense (re)sizes the dense memo matrix to the next power of two that
// fits the state table, copying filled rows over.
func (c *CensusSimulator[S]) growDense() {
	k := len(c.states)
	stride := 64
	for stride < k {
		stride *= 2
	}
	next := make([]uint32, stride*stride)
	for i := range next {
		next[i] = denseEmpty
	}
	for i := 0; i < c.denseStride; i++ {
		copy(next[i*stride:i*stride+c.denseStride], c.dense[i*c.denseStride:(i+1)*c.denseStride])
	}
	c.dense = next
	c.denseStride = stride
}

// denseEligible reports whether the dense transition matrix may cover the
// current state table: unconditionally up to batchDenseStatesMax, then on
// the condition that the live support stays concentrated enough for round
// mode to amortize, up to the hard cap. Purely a cost/memory model — a
// declined matrix routes pairs through the overflow map instead.
func (c *CensusSimulator[S]) denseEligible() bool {
	k := len(c.states)
	if k <= batchDenseStatesMax {
		return true
	}
	if k > batchDenseStatesHardMax {
		return false
	}
	return c.live <= c.maxLiveForRounds()
}

// --- The chain -----------------------------------------------------------

// applyPair executes the transition for one interaction between an agent in
// state index i (initiator) and one in j (responder), reporting whether the
// census changed.
func (c *CensusSimulator[S]) applyPair(i, j int) bool {
	i2, j2 := c.outcome(int32(i), int32(j))
	if int(i2) == i && int(j2) == j {
		return false
	}
	c.moveOne(i, int(i2))
	c.moveOne(j, int(j2))
	return true
}

// interactOnce samples one uniformly random ordered interaction and applies
// it. The initiator's state is drawn with probability count/n; the
// responder is drawn uniformly from the remaining n−1 agents by excluding
// one slot of the initiator's block from the cumulative layout, giving the
// exact (count − [same state])/(n−1) law of the uniform scheduler.
func (c *CensusSimulator[S]) interactOnce() bool {
	ti := int64(c.rand.Uint64n(uint64(c.n)))
	i, before := c.fenSample(ti)
	tj := int64(c.rand.Uint64n(uint64(c.n - 1)))
	if tj >= before {
		tj++
	}
	j, _ := c.fenSample(tj)
	return c.applyPair(i, j)
}

// collectReactivePairs enumerates the ordered live state pairs whose
// transition changes the census, filling the scratch buffers with their
// cumulative scheduler weights (count_i · (count_j − [i = j]) ways to pick
// the pair), and returns the total reactive weight.
func (c *CensusSimulator[S]) collectReactivePairs() uint64 {
	c.liveIdx = c.liveIdx[:0]
	for i, cnt := range c.counts {
		if cnt > 0 {
			c.liveIdx = append(c.liveIdx, int32(i))
		}
	}
	c.pairI, c.pairJ, c.pairW = c.pairI[:0], c.pairJ[:0], c.pairW[:0]
	var wc uint64
	for _, i := range c.liveIdx {
		ci := uint64(c.counts[i])
		for _, j := range c.liveIdx {
			cj := uint64(c.counts[j])
			if i == j {
				if cj--; cj == 0 {
					continue
				}
			}
			// Reactivity goes through the same memo as the
			// per-interaction path, so repeat enumerations are memo
			// lookups, not transition evaluations. (A pair is reactive
			// iff its outcome moves it.)
			if i2, j2 := c.outcome(i, j); i2 == i && j2 == j {
				continue
			}
			wc += ci * cj
			c.pairI = append(c.pairI, i)
			c.pairJ = append(c.pairJ, j)
			c.pairW = append(c.pairW, wc)
		}
	}
	return wc
}

// Step executes one uniformly random interaction. It panics if n < 2.
func (c *CensusSimulator[S]) Step() { c.advance(c.steps+1, -1) }

// RunSteps executes k uniformly random interactions.
func (c *CensusSimulator[S]) RunSteps(k uint64) {
	limit := c.steps + k
	for c.steps < limit {
		c.advance(limit, -1)
	}
}

// RunUntilLeaders runs random interactions until at most target leaders
// remain or maxSteps total interactions have been executed, returning the
// total step count at return and whether the target was reached. The
// reported step count is the exact first-hit time of the underlying
// chain: a round whose aggregate crosses the target is replayed
// interaction by interaction (see replayFirstHit), and the skip and
// interact modes apply at most one census change per advance, so the
// semantics match Simulator.RunUntilLeaders exactly.
func (c *CensusSimulator[S]) RunUntilLeaders(target int, maxSteps uint64) (steps uint64, ok bool) {
	if c.n == 1 {
		return c.steps, c.leaders <= target
	}
	for c.leaders > target {
		if c.steps >= maxSteps {
			return c.steps, false
		}
		c.advance(maxSteps, target)
	}
	return c.steps, true
}

// VerifyStable runs extra random interactions and reports whether any
// agent's output changed during them. Aggregate role accounting and no-op
// skips are exact, so the check matches the other engines.
func (c *CensusSimulator[S]) VerifyStable(extra uint64) bool {
	if c.n == 1 {
		return true
	}
	before := c.roleChanges
	c.RunSteps(extra)
	return c.roleChanges == before
}

// Clone returns an independent deep copy of the simulator, including the
// scheduler position and the controller state: the original and the clone
// produce identical futures until their schedules diverge. The handover
// policy function value is shared (policies must be stateless).
func (c *CensusSimulator[S]) Clone() *CensusSimulator[S] {
	d := *c
	d.rand = c.rand.Clone()
	d.states = append([]S(nil), c.states...)
	d.counts = append([]int64(nil), c.counts...)
	d.isLeader = append([]bool(nil), c.isLeader...)
	d.fen = append([]int64(nil), c.fen...)
	d.index = maps.Clone(c.index)
	d.order = append([]int32(nil), c.order...)
	if c.seen != nil {
		d.seen = maps.Clone(c.seen)
	}
	d.derived = derived{}
	return &d
}

// CloneRunner implements Runner.
func (c *CensusSimulator[S]) CloneRunner() Runner[S] { return c.Clone() }

// String identifies the engine in test names and errors.
func (c *CensusSimulator[S]) String() string {
	return fmt.Sprintf("CensusSimulator(%s, n=%d, steps=%d, mode=%s)", c.policy, c.n, c.steps, c.mode)
}
