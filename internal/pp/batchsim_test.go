package pp_test

import (
	"fmt"
	"testing"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
	"popproto/internal/stats"
)

// tickerState is the state of tickerDuel: a leader flag plus a timer that
// advances on every interaction, so *every* interaction is reactive and the
// census spreads over 2·tickerMod states — a miniature of the PLL count-up
// plateau, the reaction-dense regime the batch engine's collision-free
// rounds exist for.
type tickerState struct {
	Leader bool
	Tick   uint8
}

const tickerMod = 23

// tickerDuel combines Angluin-style leader duels with per-interaction
// timers.
type tickerDuel struct{}

func (tickerDuel) Name() string              { return "ticker-duel" }
func (tickerDuel) InitialState() tickerState { return tickerState{Leader: true} }

func (tickerDuel) Output(s tickerState) pp.Role {
	if s.Leader {
		return pp.Leader
	}
	return pp.Follower
}

func (tickerDuel) Transition(a, b tickerState) (tickerState, tickerState) {
	a.Tick = (a.Tick + 1) % tickerMod
	b.Tick = (b.Tick + 1) % tickerMod
	if a.Leader && b.Leader {
		b.Leader = false
	}
	return a, b
}

// forcedBatch constructs a batch simulator with collision-free rounds
// forced on for any population and live support, so the tests exercise the
// round machinery even at test-scale n.
func forcedBatch[S comparable](proto pp.Protocol[S], n int, seed uint64) *pp.CensusSimulator[S] {
	sim := pp.NewBatchSimulator(proto, n, seed)
	sim.TuneRounds(2, 1<<30)
	return sim
}

// checkCensusCoherent asserts the batch simulator's counters agree with
// its own census after any mix of aggregate rounds and fallback paths.
func checkCensusCoherent[S comparable](t *testing.T, sim *pp.CensusSimulator[S], proto pp.Protocol[S], n int) {
	t.Helper()
	census := sim.Census()
	total, leaders := 0, 0
	for s, c := range census {
		if c <= 0 {
			t.Fatalf("census holds non-positive count %d for %v", c, s)
		}
		total += c
		if proto.Output(s) == pp.Leader {
			leaders += c
		}
	}
	if total != n {
		t.Fatalf("census sums to %d agents, want %d", total, n)
	}
	if leaders != sim.Leaders() {
		t.Fatalf("Leaders() = %d, census says %d", sim.Leaders(), leaders)
	}
	if len(census) != sim.LiveStates() {
		t.Fatalf("LiveStates() = %d, census has %d states", sim.LiveStates(), len(census))
	}
}

// TestBatchRoundInvariants drives forced rounds through the reaction-dense
// ticker fixture and checks census coherence and exact step accounting
// after every chunk.
func TestBatchRoundInvariants(t *testing.T) {
	const n = 300
	proto := tickerDuel{}
	sim := forcedBatch[tickerState](proto, n, 11)
	var want uint64
	for i := 0; i < 60; i++ {
		k := uint64(13 + i*7)
		sim.RunSteps(k)
		want += k
		if sim.Steps() != want {
			t.Fatalf("Steps() = %d after RunSteps chunks totaling %d", sim.Steps(), want)
		}
		checkCensusCoherent(t, sim, proto, n)
	}
	if sim.Leaders() < 1 {
		t.Fatal("all leaders eliminated")
	}
	// Step() must advance by exactly one even in round mode.
	sim.Step()
	if sim.Steps() != want+1 {
		t.Fatalf("Step() advanced to %d, want %d", sim.Steps(), want+1)
	}
}

// TestBatchRoleChangesExact: in a duel every eliminated leader changes
// output exactly once, so after stabilization RoleChanges must equal n−1
// on every engine — including through aggregate application.
func TestBatchRoleChangesExact(t *testing.T) {
	const n = 257
	for _, tc := range []struct {
		name string
		sim  pp.Runner[tickerState]
	}{
		{"forced-rounds", forcedBatch[tickerState](tickerDuel{}, n, 5)},
		{"default-policy", pp.NewBatchSimulator[tickerState](tickerDuel{}, n, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := tc.sim.RunUntilLeaders(1, 1<<40); !ok {
				t.Fatal("did not stabilize")
			}
			if rc := tc.sim.RoleChanges(); rc != n-1 {
				t.Fatalf("RoleChanges = %d, want %d", rc, n-1)
			}
		})
	}
}

// TestBatchFirstHitExact: RunUntilLeaders must stop at the exact first
// configuration at or under the target. Duel eliminations are −1 per
// interaction, so stopping mid-round must land exactly on the target — and
// the stopping *time* distribution must match the per-agent engine, which
// the KS test below checks.
func TestBatchFirstHitExact(t *testing.T) {
	const (
		n      = 192
		target = n / 2
		reps   = 400
	)
	batchSteps := make([]float64, reps)
	agentSteps := make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		bs := forcedBatch[bool](pptest.Duel{}, n, uint64(rep)+1)
		steps, ok := bs.RunUntilLeaders(target, 1<<40)
		if !ok || bs.Leaders() != target {
			t.Fatalf("rep %d: stopped at %d leaders (ok=%v), want exactly %d",
				rep, bs.Leaders(), ok, target)
		}
		if steps != bs.Steps() {
			t.Fatalf("rep %d: returned steps %d != Steps() %d", rep, steps, bs.Steps())
		}
		batchSteps[rep] = float64(steps)

		as := pp.NewSimulator[bool](pptest.Duel{}, n, uint64(rep)+100_000)
		asteps, _ := as.RunUntilLeaders(target, 1<<40)
		agentSteps[rep] = float64(asteps)
	}
	ks := stats.KSTwoSample(batchSteps, agentSteps)
	if ks.P < 0.001 {
		t.Fatalf("first-hit times distinguish forced-round batch from per-agent: D=%.4f p=%.6f",
			ks.Stat, ks.P)
	}
}

// TestBatchStabilizationKS compares full-election stabilization times of
// the forced-round batch engine against the per-agent engine on the
// reaction-dense ticker fixture.
func TestBatchStabilizationKS(t *testing.T) {
	const (
		n    = 96
		reps = 300
	)
	times := func(mk func(rep int) pp.Runner[tickerState]) []float64 {
		out := make([]float64, reps)
		for rep := 0; rep < reps; rep++ {
			sim := mk(rep)
			if _, ok := sim.RunUntilLeaders(1, 1<<40); !ok {
				t.Fatalf("rep %d did not stabilize", rep)
			}
			out[rep] = sim.ParallelTime()
		}
		return out
	}
	batch := times(func(rep int) pp.Runner[tickerState] {
		return forcedBatch[tickerState](tickerDuel{}, n, uint64(rep)+1)
	})
	agent := times(func(rep int) pp.Runner[tickerState] {
		return pp.NewSimulator[tickerState](tickerDuel{}, n, uint64(rep)+500_000)
	})
	ks := stats.KSTwoSample(batch, agent)
	if ks.P < 0.001 {
		t.Fatalf("stabilization times distinguish the engines: D=%.4f p=%.6f", ks.Stat, ks.P)
	}
}

// TestBatchCloneDeterminism: a clone must reproduce the original's future
// exactly, through rounds, fallbacks and replays.
func TestBatchCloneDeterminism(t *testing.T) {
	const n = 250
	sim := forcedBatch[tickerState](tickerDuel{}, n, 31)
	sim.RunSteps(5000)
	clone := sim.Clone()
	for i := 0; i < 20; i++ {
		sim.RunSteps(777)
		clone.RunSteps(777)
		if sim.Steps() != clone.Steps() || sim.Leaders() != clone.Leaders() ||
			sim.RoleChanges() != clone.RoleChanges() {
			t.Fatalf("clone diverged at chunk %d: steps %d/%d leaders %d/%d",
				i, sim.Steps(), clone.Steps(), sim.Leaders(), clone.Leaders())
		}
	}
	a, b := sim.Census(), clone.Census()
	if len(a) != len(b) {
		t.Fatalf("census support diverged: %d vs %d", len(a), len(b))
	}
	for s, c := range a {
		if b[s] != c {
			t.Fatalf("census diverged at %v: %d vs %d", s, c, b[s])
		}
	}
}

// frozenProto never reacts: its populations are dead configurations.
type frozenProto struct{}

func (frozenProto) Name() string                   { return "frozen" }
func (frozenProto) InitialState() int              { return 0 }
func (frozenProto) Output(int) pp.Role             { return pp.Follower }
func (frozenProto) Transition(a, b int) (int, int) { return a, b }

// TestBatchDeadCensus: all-no-op rounds must hand over to the geometric
// skipper, which detects the dead census and spends the whole budget in
// O(1) — while keeping step accounting exact.
func TestBatchDeadCensus(t *testing.T) {
	const n = 4096
	sim := pp.NewBatchSimulator[int](frozenProto{}, n, 3)
	const budget = uint64(1) << 50 // ~10^15 interactions: must not be walked
	sim.RunSteps(budget)
	if sim.Steps() != budget {
		t.Fatalf("Steps() = %d, want %d", sim.Steps(), budget)
	}
	if !sim.VerifyStable(1 << 50) {
		t.Fatal("frozen population reported unstable")
	}
	if sim.RoleChanges() != 0 {
		t.Fatalf("RoleChanges = %d on a frozen population", sim.RoleChanges())
	}
}

// TestBatchEndgameHandover: after a duel stabilizes, the census is inert;
// a huge follow-up run must complete via the geometric path with exact
// step accounting.
func TestBatchEndgameHandover(t *testing.T) {
	const n = 2048
	sim := pp.NewBatchSimulator[bool](pptest.Duel{}, n, 9)
	if _, ok := sim.RunUntilLeaders(1, 1<<40); !ok {
		t.Fatal("duel did not stabilize")
	}
	at := sim.Steps()
	sim.RunSteps(1 << 44)
	if sim.Steps() != at+(1<<44) {
		t.Fatalf("Steps() = %d, want %d", sim.Steps(), at+(1<<44))
	}
	if sim.Leaders() != 1 {
		t.Fatalf("leader census corrupted after handover: %d", sim.Leaders())
	}
}

// TestBatchChiSquareBins applies a two-sample χ² over pooled-sample
// quantile bins to forced-round vs per-agent Duel stabilization times (the
// χ² complement of the KS tests, robust to the bin-edge estimation noise a
// one-sample quantile binning would suffer).
func TestBatchChiSquareBins(t *testing.T) {
	const (
		n    = 128
		reps = 300
		bins = 6
	)
	agent := make([]float64, reps)
	batch := make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		as := pp.NewSimulator[bool](pptest.Duel{}, n, uint64(rep)+1)
		s, _ := as.RunUntilLeaders(1, 1<<40)
		agent[rep] = float64(s)
		bs := forcedBatch[bool](pptest.Duel{}, n, uint64(rep)+900_000)
		s2, _ := bs.RunUntilLeaders(1, 1<<40)
		batch[rep] = float64(s2)
	}
	pooled := append(append([]float64(nil), agent...), batch...)
	edges := make([]float64, bins-1)
	for i := range edges {
		edges[i] = stats.Quantile(pooled, float64(i+1)/bins)
	}
	binOf := func(v float64) int {
		b := 0
		for b < len(edges) && v > edges[b] {
			b++
		}
		return b
	}
	oa := make([]float64, bins)
	ob := make([]float64, bins)
	for i := range agent {
		oa[binOf(agent[i])]++
		ob[binOf(batch[i])]++
	}
	// Pearson two-sample statistic with equal sample sizes: Σ (a−b)²/(a+b),
	// asymptotically χ² with bins−1 degrees of freedom.
	stat := 0.0
	for i := range oa {
		if oa[i]+ob[i] == 0 {
			continue
		}
		d := oa[i] - ob[i]
		stat += d * d / (oa[i] + ob[i])
	}
	p := stats.GammaQ(float64(bins-1)/2, stat/2)
	if p < 0.001 {
		t.Fatalf("stabilization times distinguish the engines: χ²=%.2f p=%.5f (agent %v, batch %v)",
			stat, p, oa, ob)
	}
}

// TestBatchRunnerSurface exercises the Runner surface on the batch engine
// through the declarative harness, like the other engines.
func TestBatchRunnerSurface(t *testing.T) {
	tc := pptest.TestCase[bool]{Proto: pptest.Duel{}, N: 512, Seed: 4, Engine: pp.EngineBatch}
	pptest.Run(t, tc, "elect", func(t *testing.T, tc pptest.TestCase[bool], sim pp.Runner[bool]) {
		pptest.ElectOne(t, tc, sim)
		if !sim.VerifyStable(uint64(tc.N) * 10) {
			t.Fatal("stabilized duel reported unstable")
		}
	})
	// TrackStates leaves round mode but must stay correct.
	sim := pp.NewBatchSimulator[tickerState](tickerDuel{}, 256, 8)
	sim.TrackStates()
	sim.RunSteps(20_000)
	if d := sim.DistinctStates(); d < tickerMod || d > 2*tickerMod {
		t.Fatalf("DistinctStates = %d, want within [%d, %d]", d, tickerMod, 2*tickerMod)
	}
	if s := fmt.Sprint(sim); s == "" {
		t.Fatal("empty String()")
	}
}

// stateHungry mints a fresh state on every interaction (MaxID-like): the
// dense memo must overflow to the map fallback and round mode must shut
// itself off without losing exactness of the step accounting.
type hungryState struct {
	ID int
}

type stateHungry struct{}

func (stateHungry) Name() string               { return "state-hungry" }
func (stateHungry) InitialState() hungryState  { return hungryState{} }
func (stateHungry) Output(hungryState) pp.Role { return pp.Follower }
func (stateHungry) Transition(a, b hungryState) (hungryState, hungryState) {
	m := a.ID
	if b.ID > m {
		m = b.ID
	}
	return hungryState{ID: m + 1}, hungryState{ID: m}
}

func TestBatchStateHungryFallback(t *testing.T) {
	const n = 4096
	sim := pp.NewBatchSimulator[hungryState](stateHungry{}, n, 17)
	sim.RunSteps(40_000)
	if sim.Steps() != 40_000 {
		t.Fatalf("Steps() = %d, want 40000", sim.Steps())
	}
	total := 0
	for _, c := range sim.Census() {
		total += c
	}
	if total != n {
		t.Fatalf("census sums to %d, want %d", total, n)
	}
}
