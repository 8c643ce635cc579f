package pp

import (
	"maps"
	"math/bits"
)

// stateTable interns the states the engines meet: index i holds state
// states[i], its leader flag and its current multiplicity counts[i] (zero
// once every agent has left it). Indexes are assigned in order of first
// sight and never reassigned, so per-state work — memoized transitions,
// rendered names — can be cached by index for as long as the table lives.
// A census engine builds one table per run; the agent engine's table may
// outlive a run and serve the next runs of the same protocol and
// population size (see Table), so it holds every state those runs met.
//
// listed holds every state with a nonzero count, and possibly states
// whose count has dropped to zero since the last walk (onList marks
// membership). shift adds a state when its count rises from zero;
// eachLive and clear prune it. So walking or clearing the census costs
// O(states live since the last walk), not O(table), while a move that
// empties a state costs nothing extra.
type stateTable[S comparable] struct {
	proto    Protocol[S]
	states   []S
	counts   []int64
	isLeader []bool
	index    map[S]int
	live     int // number of states with counts[i] > 0
	leaders  int // agents in leader states
	listed   []int32
	onList   []bool
}

func newStateTable[S comparable](proto Protocol[S]) stateTable[S] {
	const k = 64 // PLL's median election visits about this many states
	return stateTable[S]{
		proto:    proto,
		states:   make([]S, 0, k),
		counts:   make([]int64, 0, k),
		isLeader: make([]bool, 0, k),
		index:    make(map[S]int, k),
		onList:   make([]bool, 0, k),
	}
}

// intern returns the index of s, registering it (with count 0) on first
// sight.
func (t *stateTable[S]) intern(s S) int {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := len(t.states)
	t.states = append(t.states, s)
	t.counts = append(t.counts, 0)
	t.isLeader = append(t.isLeader, t.proto.Output(s) == Leader)
	t.onList = append(t.onList, false)
	t.index[s] = i
	return i
}

// shift moves the multiplicity of state index i by d, keeping the
// live-state count, the live list and the leader census coherent.
func (t *stateTable[S]) shift(i int32, d int64) {
	old := t.counts[i]
	t.counts[i] = old + d
	switch {
	case old == 0 && d > 0:
		t.live++
		if !t.onList[i] {
			t.onList[i] = true
			t.listed = append(t.listed, i)
		}
	case old+d == 0 && d < 0:
		t.live--
	}
	if t.isLeader[i] {
		t.leaders += int(d)
	}
}

// transition evaluates the protocol on the ordered pair of state indexes,
// interning any new successor state. An unchanged side keeps its index.
func (t *stateTable[S]) transition(i, j int32) (int32, int32) {
	a, b := t.states[i], t.states[j]
	a2, b2 := t.proto.Transition(a, b)
	i2, j2 := i, j
	if a2 != a {
		i2 = int32(t.intern(a2))
	}
	if b2 != b {
		j2 = int32(t.intern(b2))
	}
	return i2, j2
}

// eachLive calls f once per state with a nonzero count, in no fixed
// order, and prunes the live list. f must not change the census.
func (t *stateTable[S]) eachLive(f func(id int, s S, count int)) {
	kept := t.listed[:0]
	for _, i := range t.listed {
		if c := t.counts[i]; c > 0 {
			kept = append(kept, i)
			f(int(i), t.states[i], int(c))
		} else {
			t.onList[i] = false
		}
	}
	t.listed = kept
}

// census returns the live states and their multiplicities.
func (t *stateTable[S]) census() map[S]int {
	m := make(map[S]int, t.live)
	t.eachLive(func(_ int, s S, c int) { m[s] = c })
	return m
}

// clear empties the census, keeping the interned states.
func (t *stateTable[S]) clear() {
	for _, i := range t.listed {
		t.counts[i] = 0
		t.onList[i] = false
	}
	t.listed = t.listed[:0]
	t.live, t.leaders = 0, 0
}

// clone returns a deep copy of the table.
func (t *stateTable[S]) clone() stateTable[S] {
	d := *t
	d.states = append([]S(nil), t.states...)
	d.counts = append([]int64(nil), t.counts...)
	d.isLeader = append([]bool(nil), t.isLeader...)
	d.index = maps.Clone(t.index)
	d.listed = append([]int32(nil), t.listed...)
	d.onList = append([]bool(nil), t.onList...)
	return d
}

// memoBits bounds the transition memo: at most 2¹⁴ cells of 16 bytes,
// 256 KiB.
const memoBits = 14

// memoCell is one slot of the transition memo. key packs the ordered pair
// of state indexes with bit 63 set, so a zeroed cell matches no pair.
type memoCell struct {
	key    uint64
	i2, j2 int32
}

// pairMemo is the bounded transition memo of both engines: a
// direct-mapped cache of transition outcomes, indexed by a hash of the
// packed pair of state indexes. Its size is fixed when it is made and it
// never grows; a pair whose slot another pair took is simply evaluated
// again. Transitions are pure and state indexes are never reassigned, so
// the memo holds no chain state and stays valid for as long as its table.
type pairMemo []memoCell

// memoSize rounds a memo size up to a power of two between 2⁸ and
// 2^memoBits cells.
func memoSize(cells int) int { return 1 << min(max(bits.Len(uint(cells-1)), 8), memoBits) }

// newPairMemo returns an empty memo of memoSize(cells) cells.
func newPairMemo(cells int) pairMemo { return make(pairMemo, memoSize(cells)) }

// newRunMemo returns the memo of a table that serves one run of n agents:
// 2 cells per agent, at most 2¹² (64 KiB). A small population meets few
// distinct pairs, and its runs, often a few thousand interactions long,
// would spend more on a larger allocation, faulted in fresh, than the
// memo saves. A table that serves many runs gets a larger memo (see
// Simulator.Release).
func newRunMemo(n int) pairMemo { return newPairMemo(min(2*n, 1<<12)) }

// lookup returns the outcome of the ordered pair (i, j), evaluating and
// caching it through t on a miss.
func lookup[S comparable](m pairMemo, t *stateTable[S], i, j int32) (int32, int32) {
	key := 1<<63 | uint64(uint32(i))<<32 | uint64(uint32(j))
	c := &m[(key*0x9e3779b97f4a7c15)>>(bits.LeadingZeros64(uint64(len(m)))+1)]
	if c.key != key {
		i2, j2 := t.transition(i, j)
		*c = memoCell{key: key, i2: i2, j2: j2}
	}
	return c.i2, c.j2
}
