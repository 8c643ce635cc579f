package pp_test

import (
	"testing"

	"popproto/internal/pp"
)

// Allocation-regression tests: the round engines keep per-simulator arenas
// for the slot/assignment buffers and share one dense transition memo
// between round mode and the census core's fallback paths, so a warmed-up
// simulator's hot paths — round assignment, slot sampling, matching,
// geometric skipping — must run allocation-free. A regression here silently
// rebuilds the 13 MB/op profile the dense-memo sharing removed.

// steadyStateAllocs runs warm once to populate arenas and memos, then
// reports the average allocations of rounds invocations of hot.
func steadyStateAllocs(warm, hot func()) float64 {
	warm()
	return testing.AllocsPerRun(20, hot)
}

func TestBatchRoundAllocFree(t *testing.T) {
	const n = 1 << 16
	sim := pp.NewBatchSimulator[tickerState](tickerDuel{}, n, 17)
	avg := steadyStateAllocs(
		func() { sim.RunSteps(8 * n) },
		func() { sim.RunSteps(n) },
	)
	if avg > 0.5 {
		t.Fatalf("batch round hot path allocates: %.2f allocs per RunSteps(n)", avg)
	}
}

// TestCountAllocFree pins the count policy's hot path — per-interaction
// sampling and skipping through the shared dense transition memo — once
// the memo and the state table are warm.
func TestCountAllocFree(t *testing.T) {
	const n = 1 << 16
	sim := pp.NewCountSimulator[tickerState](tickerDuel{}, n, 31)
	avg := steadyStateAllocs(
		func() { sim.RunSteps(8 * n) },
		func() { sim.RunSteps(n) },
	)
	if avg > 0.5 {
		t.Fatalf("count hot path allocates: %.2f allocs per RunSteps(n)", avg)
	}
}

// TestAgentAllocFree pins the agent engine's hot path — interned agents
// and the bounded transition memo — once the memo and the state table
// are warm.
func TestAgentAllocFree(t *testing.T) {
	const n = 1 << 16
	sim := pp.NewSimulator[tickerState](tickerDuel{}, n, 37)
	avg := steadyStateAllocs(
		func() { sim.RunSteps(8 * n) },
		func() { sim.RunSteps(n) },
	)
	if avg > 0.5 {
		t.Fatalf("agent hot path allocates: %.2f allocs per RunSteps(n)", avg)
	}
}

func TestHybridModesAllocFree(t *testing.T) {
	const n = 1 << 16
	for _, mode := range []pp.HybridMode{pp.ModeRound, pp.ModeInteract, pp.ModeSkip} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			sim := pp.NewHybridSimulator[tickerState](tickerDuel{}, n, 19)
			sim.TuneRounds(2, 1<<30)
			// Saturate the ticker's 2·tickerMod-state space with round
			// mode first: steady state means no new states, and the
			// reactive-pair index (unlike the old flat enumeration
			// buffers) pays an amortized insertion whenever a
			// never-before-live state joins the census.
			sim.RunSteps(4 * n)
			sim.TuneHandover(func(pp.HybridStats) pp.HybridMode { return mode })
			// Skip mode on the reaction-dense ticker census advances one
			// interaction per event; keep its chunks affordable but warm
			// long enough that the last rare (leader, tick) states are
			// discovered before measurement — each first sighting costs a
			// one-time state-table append plus index insertion.
			chunk, warm := uint64(n), uint64(8*n)
			if mode == pp.ModeSkip {
				chunk, warm = 2048, 64*2048
			}
			avg := steadyStateAllocs(
				func() { sim.RunSteps(warm) },
				func() { sim.RunSteps(chunk) },
			)
			if avg > 0.5 {
				t.Fatalf("hybrid %s hot path allocates: %.2f allocs per RunSteps(%d)",
					mode, avg, chunk)
			}
		})
	}
}

// spreadState/spreadCycle is a diagonal-reactive protocol whose census
// settles on spreadStates live states — wider than the 384-state cap the
// skip path had before the reactive-pair index — while staying no-op
// dominated: only equal-state pairs react, so wc = Σ cᵢ(cᵢ−1) ≪ n(n−1)
// once the census has spread, and the default controller holds the census
// in index-maintained skip mode.
type spreadState uint16

const spreadStates = 512

type spreadCycle struct{}

func (spreadCycle) Name() string               { return "spread-cycle" }
func (spreadCycle) InitialState() spreadState  { return 0 }
func (spreadCycle) Output(spreadState) pp.Role { return pp.Follower }

func (spreadCycle) Transition(a, b spreadState) (spreadState, spreadState) {
	if a != b {
		return a, b
	}
	return (a + 1) % spreadStates, (2*a + 1) % spreadStates
}

// TestSkipIndexAllocFree pins the tentpole's allocation discipline: the
// payoff-driven skip path on a census far wider than the old live-state
// cap — geometric events, incremental index maintenance, and two-level
// pair selection — runs allocation-free once the live support is
// saturated.
func TestSkipIndexAllocFree(t *testing.T) {
	const n = 1 << 12
	sim := pp.NewHybridSimulator[spreadState](spreadCycle{}, n, 29)
	avg := steadyStateAllocs(
		func() { sim.RunSteps(1 << 22) },
		func() { sim.RunSteps(1 << 14) },
	)
	st := sim.Stats()
	if st.Live <= 384 {
		t.Fatalf("census spread to only %d live states; want > 384 to exercise the uncapped skip path", st.Live)
	}
	if st.SkipSteps == 0 {
		t.Fatalf("controller never skipped: %+v", st)
	}
	if avg > 0.5 {
		t.Fatalf("index-maintained skip path allocates: %.2f allocs per RunSteps", avg)
	}
}

// TestHybridDefaultPolicyAllocFree drives the default payoff controller
// (mode churn included) and asserts the handover machinery itself does not
// allocate once arenas are warm.
func TestHybridDefaultPolicyAllocFree(t *testing.T) {
	const n = 1 << 16
	sim := pp.NewHybridSimulator[tickerState](tickerDuel{}, n, 23)
	avg := steadyStateAllocs(
		func() { sim.RunSteps(8 * n) },
		func() { sim.RunSteps(n) },
	)
	if avg > 0.5 {
		t.Fatalf("hybrid default controller allocates: %.2f allocs per RunSteps(n)", avg)
	}
}
