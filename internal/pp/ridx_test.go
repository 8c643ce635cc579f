package pp

import (
	"sort"
	"testing"
)

// mixState/mixProto is a small deterministic protocol chosen to churn the
// census hard: a third of the ordered pairs are no-ops, a third move the
// initiator, a third move the responder, with targets scattered by a
// multiplicative hash. Runs discover states lazily, drive counts to zero
// and revive them, and keep a healthy no-op fraction so both the
// per-interaction and the geometric skip paths engage.
type mixState uint8

const mixStates = 24

type mixProto struct{}

func (mixProto) Name() string           { return "mix" }
func (mixProto) InitialState() mixState { return 0 }
func (mixProto) Output(s mixState) Role {
	if s == 0 {
		return Leader
	}
	return Follower
}

func (mixProto) Transition(a, b mixState) (mixState, mixState) {
	s := (7*a + 3*b + 5) % mixStates
	switch s % 3 {
	case 0:
		return a, b
	case 1:
		return s, b
	default:
		return a, (s + 1) % mixStates
	}
}

// checkReactiveIndex asserts that the incrementally maintained index agrees
// bit-for-bit with a from-scratch enumeration: same total weight wc, same
// positive-weight ordered pairs in the same lexicographic cumulative layout,
// and the same pair selected for any sampling target. collectReactivePairs
// only fills the scratch buffers — it never touches the index — so it is a
// sound reference.
func checkReactiveIndex[S comparable](t *testing.T, c *CensusSimulator[S]) {
	t.Helper()
	if !c.ridx.valid {
		t.Fatal("reactive-pair index invalid mid-check")
	}
	wcRef := c.collectReactivePairs()
	if c.ridx.wc != wcRef {
		t.Fatalf("index wc = %d, from-scratch enumeration = %d", c.ridx.wc, wcRef)
	}
	k := 0
	var cum uint64
	for _, i := range c.ridx.members {
		ci := c.counts[i]
		if ci == 0 {
			continue
		}
		for _, j := range c.ridx.rows[i] {
			w := c.counts[j]
			if j == i {
				w--
			}
			if w <= 0 {
				continue
			}
			if k >= len(c.pairI) {
				t.Fatalf("index holds extra reactive pair (%d,%d) beyond the %d enumerated", i, j, len(c.pairI))
			}
			if c.pairI[k] != i || c.pairJ[k] != j {
				t.Fatalf("pair %d: index (%d,%d) != enumerated (%d,%d)", k, i, j, c.pairI[k], c.pairJ[k])
			}
			cum += uint64(ci) * uint64(w)
			if c.pairW[k] != cum {
				t.Fatalf("pair %d (%d,%d): cumulative weight index %d != enumerated %d", k, i, j, cum, c.pairW[k])
			}
			k++
		}
	}
	if k != len(c.pairI) {
		t.Fatalf("index enumerates %d positive-weight pairs, from-scratch %d", k, len(c.pairI))
	}
	if wcRef == 0 {
		return
	}
	// Sampling agreement across the layout, including both edges of the
	// support and targets straddling pair boundaries.
	targets := []uint64{0, wcRef - 1, wcRef / 2, wcRef / 3, 2 * wcRef / 3}
	for _, w := range c.pairW {
		if w < wcRef {
			targets = append(targets, w) // first offset of the next pair
		}
		targets = append(targets, w-1) // last offset of this pair
	}
	for _, tgt := range targets {
		gi, gj := c.ridxSamplePair(tgt)
		x := sort.Search(len(c.pairW), func(p int) bool { return c.pairW[p] > tgt })
		if gi != int(c.pairI[x]) || gj != int(c.pairJ[x]) {
			t.Fatalf("target %d: index selects (%d,%d), enumeration (%d,%d)", tgt, gi, gj, c.pairI[x], c.pairJ[x])
		}
	}
}

// TestReactiveIndexEquivalence drives randomized interaction sequences
// through every maintenance path — per-interaction census updates with lazy
// state discovery, death and revival, geometric skip events, and metered
// batch rounds — asserting after every census change that the index still
// matches a from-scratch enumeration bit for bit.
func TestReactiveIndexEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 11, 47} {
		c := NewCountSimulator[mixState](mixProto{}, 240, seed)
		c.reactiveWeight() // initial build; maintenance is incremental from here
		if !c.ridx.valid {
			t.Fatal("reactiveWeight did not build the index")
		}
		checkReactiveIndex(t, c)

		// Per-interaction path: add() folds every count change into the
		// index while new states are still being discovered.
		for ev := 0; ev < 1500; ev++ {
			if c.interactOnce() {
				checkReactiveIndex(t, c)
			}
		}

		// Geometric skip path: skip prices the event off the
		// index's wc and samples via the two-level walk.
		c.mode = ModeSkip
		for ev := 0; ev < 300; ev++ {
			c.skip(c.steps + 1<<20)
			c.mode = ModeSkip // pin the path regardless of exit decisions
			checkReactiveIndex(t, c)
		}

		// Metered maintenance: rounds arm a budget that may invalidate the
		// index mid-round; whenever it survives it must still be exact, and
		// a rebuild must restore exactness.
		for ev := 0; ev < 200; ev++ {
			c.ridxMeter()
			for k := 0; k < 40; k++ {
				c.interactOnce()
			}
			c.ridxUnmeter()
			if !c.ridx.valid {
				c.ridxRebuild()
			}
			checkReactiveIndex(t, c)
		}
	}
}

// TestReactiveIndexBatchRounds runs the full batch engine — collision-free
// rounds maintaining the index through the bump hook under metering, with
// replayFirstHit restores invalidating it wholesale — and cross-checks the
// index against from-scratch enumeration at round-boundary granularity.
func TestReactiveIndexBatchRounds(t *testing.T) {
	for _, seed := range []uint64{5, 29} {
		b := NewBatchSimulator[mixState](mixProto{}, 4096, seed)
		b.reactiveWeight()
		for chunk := 0; chunk < 120; chunk++ {
			b.RunSteps(512)
			if !b.ridx.valid {
				b.ridxRebuild()
			}
			checkReactiveIndex(t, b)
		}
	}
}
