package pp

import (
	"testing"

	"popproto/internal/stats"
)

// identityProto is a minimal in-package fixture (identity transitions).
type identityProto struct{}

func (identityProto) Name() string                         { return "identity" }
func (identityProto) InitialState() uint8                  { return 0 }
func (identityProto) Output(uint8) Role                    { return Follower }
func (identityProto) Transition(a, b uint8) (uint8, uint8) { return a, b }

// TestBirthdaySurvivalTable checks the tabulated birthday law against a
// directly computed product, and its boundary behavior.
func TestBirthdaySurvivalTable(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 1000} {
		b := NewBatchSimulator[uint8](identityProto{}, n, 1)
		b.ensureSurvival()
		surv := b.survival
		if surv[0] != 1 {
			t.Fatalf("n=%d: survival[0] = %v", n, surv[0])
		}
		p := 1.0
		for tt := 1; tt < len(surv); tt++ {
			nu := float64(n - 2*(tt-1))
			p *= nu * (nu - 1) / (float64(n) * float64(n-1))
			if surv[tt] != p {
				t.Fatalf("n=%d: survival[%d] = %v, want %v", n, tt, surv[tt], p)
			}
			if 2*tt > n {
				t.Fatalf("n=%d: table extends past n/2 (t=%d)", n, tt)
			}
		}
	}
}

// TestBirthdayRoundLengthPMF draws round lengths and χ²-tests them against
// the exact law P[T = t] = survival[t] − survival[t+1].
func TestBirthdayRoundLengthPMF(t *testing.T) {
	const (
		n    = 64
		reps = 200_000
	)
	b := NewBatchSimulator[uint8](identityProto{}, n, 42)
	b.ensureSurvival()
	surv := b.survival
	pmf := make([]float64, len(surv)+1)
	for tt := 1; tt < len(surv); tt++ {
		next := 0.0
		if tt+1 < len(surv) {
			next = surv[tt+1]
		}
		pmf[tt] = surv[tt] - next
	}
	obs := make([]float64, len(pmf))
	for i := 0; i < reps; i++ {
		f, collided := b.sampleRoundLength(1 << 40)
		if !collided {
			t.Fatal("huge remaining budget must never truncate")
		}
		if f == 0 || int(f) >= len(pmf) {
			t.Fatalf("round length %d outside support [1, %d]", f, len(pmf)-1)
		}
		obs[f]++
	}
	var po, pe []float64
	var co, ce float64
	for tt := 1; tt < len(pmf); tt++ {
		co += obs[tt]
		ce += pmf[tt] * reps
		if ce >= 5 {
			po = append(po, co)
			pe = append(pe, ce)
			co, ce = 0, 0
		}
	}
	if ce > 0 {
		po[len(po)-1] += co
		pe[len(pe)-1] += ce
	}
	gof := stats.ChiSquareGOF(po, pe)
	if gof.P < 0.001 {
		t.Fatalf("round lengths do not follow the birthday law: %v", gof)
	}
}

// TestBirthdayTruncation: a small remaining budget must cap the round at
// exactly that many interactions, reported as non-colliding.
func TestBirthdayTruncation(t *testing.T) {
	b := NewBatchSimulator[uint8](identityProto{}, 1_000_000, 7)
	for i := 0; i < 1000; i++ {
		f, collided := b.sampleRoundLength(5)
		if collided || f != 5 {
			// At n = 10⁶ a round of ≤ 5 interactions collides with
			// probability < 3·10⁻⁵; a thousand truncations in a row
			// colliding would mean the cap is broken.
			if collided && f < 5 {
				continue
			}
			t.Fatalf("draw %d: got f=%d collided=%v for remaining=5", i, f, collided)
		}
	}
}

// TestEnsureFenRebuild: after rounds dirtied the census, the rebuilt
// Fenwick table must agree with the counts prefix sums.
func TestEnsureFenRebuild(t *testing.T) {
	const n = 500
	b := NewBatchSimulator[tickerStateInternal](tickerInternal{}, n, 13)
	b.TuneRounds(2, 1<<30)
	b.RunSteps(10_000)
	// A trailing short fallback advance may already have rebuilt the table;
	// ensureFen must leave a coherent table either way.
	b.ensureFen()
	cs := b
	var prefix int64
	for i := range cs.counts {
		if got := cs.fenPrefix(i + 1); got != prefix+cs.counts[i] {
			t.Fatalf("fenPrefix(%d) = %d, want %d", i+1, got, prefix+cs.counts[i])
		}
		prefix += cs.counts[i]
	}
	if prefix != int64(n) {
		t.Fatalf("census total %d, want %d", prefix, n)
	}
	// The rebuilt table must drive the per-interaction path correctly.
	b.TuneRounds(1<<30, 0) // disable rounds
	before := b.Steps()
	b.RunSteps(1000)
	if b.Steps() != before+1000 {
		t.Fatalf("per-interaction fallback lost steps: %d -> %d", before, b.Steps())
	}
}

// tickerInternal mirrors the reaction-dense fixture for in-package tests.
type tickerStateInternal struct {
	Leader bool
	Tick   uint8
}

type tickerInternal struct{}

func (tickerInternal) Name() string                      { return "ticker-internal" }
func (tickerInternal) InitialState() tickerStateInternal { return tickerStateInternal{Leader: true} }
func (tickerInternal) Output(s tickerStateInternal) Role {
	if s.Leader {
		return Leader
	}
	return Follower
}

func (tickerInternal) Transition(a, b tickerStateInternal) (tickerStateInternal, tickerStateInternal) {
	a.Tick = (a.Tick + 1) % 17
	b.Tick = (b.Tick + 1) % 17
	if a.Leader && b.Leader {
		b.Leader = false
	}
	return a, b
}

// wideProto's states are plain ints, so tests can register arbitrarily
// many distinct states.
type wideProto struct{}

func (wideProto) Name() string                   { return "wide" }
func (wideProto) InitialState() int              { return 0 }
func (wideProto) Output(int) Role                { return Follower }
func (wideProto) Transition(a, b int) (int, int) { return a + 1, b }

// TestOutcomeMapFallback drives the dense-memo overflow branch directly: a
// state table beyond batchDenseStatesHardMax must route outcome lookups
// through the bounded pair memo without growing the dense matrix.
func TestOutcomeMapFallback(t *testing.T) {
	b := NewBatchSimulator[int](wideProto{}, 100, 3)
	cs := b
	for s := 1; s <= batchDenseStatesHardMax+8; s++ {
		cs.stateIndex(s)
	}
	strideBefore := b.denseStride
	i2, j2 := b.outcome(int32(batchDenseStatesHardMax+2), int32(batchDenseStatesHardMax+4))
	if b.denseStride != strideBefore {
		t.Fatalf("dense matrix grew (stride %d -> %d) instead of falling back",
			strideBefore, b.denseStride)
	}
	// wideProto maps (a, b) -> (a+1, b): the initiator's outcome is the next
	// registered state, the responder is unchanged.
	wantI := cs.index[batchDenseStatesHardMax+3]
	if int(i2) != wantI || int(j2) != batchDenseStatesHardMax+4 {
		t.Fatalf("fallback outcome = (%d, %d), want (%d, %d)", i2, j2,
			wantI, batchDenseStatesHardMax+4)
	}
}

// TestDenseGrowthGate pins the live-concentration gate on dense-matrix
// growth past the soft cap: a wide live support must decline growth (a
// state-hungry protocol would otherwise pay up to 64 MiB for a matrix its
// rounds can never use), while a concentrated census keeps growing until
// the hard cap.
func TestDenseGrowthGate(t *testing.T) {
	b := NewBatchSimulator[int](wideProto{}, 100_000, 3)
	cs := b
	// counts > 0 for far more states than maxLiveForRounds: wide support.
	for s := 1; s <= batchDenseStatesMax+8; s++ {
		cs.add(cs.stateIndex(s), 1)
	}
	if b.denseEligible() {
		t.Fatalf("dense growth allowed with live=%d > cap %d beyond the soft cap",
			cs.live, b.maxLiveForRounds())
	}
	if _, _, ok := b.denseOutcome(batchDenseStatesMax+2, batchDenseStatesMax+4); ok {
		t.Fatal("denseOutcome grew the matrix for a wide-support census")
	}
	// Concentrate the census again: growth past the soft cap is allowed.
	for s := 9; s <= batchDenseStatesMax+8; s++ {
		cs.add(cs.index[s], -1)
	}
	if !b.denseEligible() {
		t.Fatalf("dense growth declined with live=%d concentrated below cap %d",
			cs.live, b.maxLiveForRounds())
	}
	if _, _, ok := b.denseOutcome(batchDenseStatesMax+2, batchDenseStatesMax+4); !ok {
		t.Fatal("denseOutcome declined a concentrated census below the hard cap")
	}
}
