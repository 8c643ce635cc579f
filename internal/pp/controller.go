package pp

import "fmt"

// Tuning constants of the hybrid policy's mode controller. Like the other
// constants they affect only wall-clock cost, never the sampled
// distribution: every mode realizes the exact uniform-scheduler Markov
// chain, so any deterministic mode policy is distribution-preserving.
const (
	// hybridShortSkipStreak is the number of consecutive short geometric
	// skips (shorter than the skip-event's break-even length, see
	// skipBreakEven) after which the controller hands the census back to
	// rounds (or per-interaction sampling): short skips mean the census
	// has turned reaction-dense again and paying an index walk per event
	// no longer beats aggregate rounds.
	hybridShortSkipStreak = 2
)

// HybridMode identifies one of the three execution modes the census
// simulator hands the census between. All modes sample the exact chain;
// they differ only in how many interactions one advance covers and what
// that advance costs.
type HybridMode uint8

const (
	// ModeRound processes collision-free rounds of Θ(√n) interactions via
	// birthday-law round lengths and hypergeometric slot assignment (see
	// round). Cheapest per interaction while the census is concentrated on
	// few states and reaction-dense.
	ModeRound HybridMode = iota
	// ModeInteract samples one interacting state pair at a time through
	// the Fenwick cumulative-weight table. The fallback when the live
	// support is too wide for aggregate draws to amortize.
	ModeInteract
	// ModeSkip jumps geometrically distributed runs of census-preserving
	// interactions and applies the next state-changing pair directly.
	// Unbeatable when the census is inert (two surviving leaders among 10⁸
	// agents meet once every ~n²/2 interactions).
	ModeSkip
)

// String implements fmt.Stringer for test names and telemetry.
func (m HybridMode) String() string {
	switch m {
	case ModeRound:
		return "round"
	case ModeInteract:
		return "interact"
	case ModeSkip:
		return "skip"
	default:
		return fmt.Sprintf("HybridMode(%d)", uint8(m))
	}
}

// HybridStats is the controller's online view of the chain: the census
// concentration and the realized payoff of the current mode. It is handed
// to custom handover policies (TuneHandover) and exposed via Stats; the
// registry reports it for the hybrid engine only.
//
// All fields are deterministic functions of the chain history — never of
// wall-clock time — so policies built on them keep runs bit-reproducible
// from the seed.
type HybridStats struct {
	N       int        // population size
	Steps   uint64     // interactions executed so far
	Live    int        // distinct states with nonzero count (census concentration)
	States  int        // distinct states ever observed (dense-table pressure)
	Leaders int        // current leader count
	Mode    HybridMode // mode that executed the previous advance

	// ExpRound caches √(πn/8) ≈ 0.627·√n, the expected collision-free
	// round length — the yardstick realized skip lengths are compared to.
	ExpRound float64

	// Round telemetry.
	LastRoundLen      uint64 // interactions covered by the last round
	LastRoundReactive uint64 // census-changing interactions among them
	NoopRounds        int    // consecutive all-no-op rounds

	// Skip telemetry.
	LastSkip    uint64 // no-ops jumped by the last geometric event
	ShortSkips  int    // consecutive skips below the break-even length
	SkipEntries uint64 // controller handovers into skip mode
	SkipEvents  uint64 // skip-mode advances (geometric events, incl. budget truncations)

	// Interact telemetry.
	NoopStreak int // consecutive sampled no-ops in interact mode

	// Cumulative mode occupancy: interactions covered while each mode held
	// the census, and the number of times the controller switched modes.
	// RoundSteps+InteractSteps+SkipSteps == Steps at every advance
	// boundary, so occupancy ratios are exact, not sampled.
	RoundSteps    uint64
	InteractSteps uint64
	SkipSteps     uint64
	Handovers     uint64

	// RoundEligible reports whether rounds are permitted at all: the
	// dense transition matrix bounds the state table. The controller
	// clamps any policy's ModeRound request to ModeInteract while this is
	// false.
	RoundEligible bool
}

// TuneHandover overrides the mode controller: policy is consulted once per
// advance with the current HybridStats and returns the mode to execute
// next. nil restores the engine's own policy. Any deterministic policy is
// distribution-preserving — the controller trades only wall-clock time —
// which is why the knob is safe to expose for the forced-handover
// equivalence tests. ModeRound requests are clamped to ModeInteract while
// rounds are ineligible (see HybridStats.RoundEligible).
//
// A clone shares the policy function value with its original; policies
// must therefore not close over per-simulator mutable state.
func (c *CensusSimulator[S]) TuneHandover(policy func(HybridStats) HybridMode) {
	c.handover = policy
}

// Mode returns the mode that executed the most recent advance.
func (c *CensusSimulator[S]) Mode() HybridMode { return c.mode }

// Stats returns the controller's current view of the chain.
func (c *CensusSimulator[S]) Stats() HybridStats {
	return HybridStats{
		N:                 c.n,
		Steps:             c.steps,
		Live:              c.live,
		States:            len(c.states),
		Leaders:           c.leaders,
		Mode:              c.mode,
		ExpRound:          c.expRound,
		LastRoundLen:      c.lastRoundLen,
		LastRoundReactive: c.lastRoundReactive,
		NoopRounds:        c.noopRounds,
		LastSkip:          c.lastSkip,
		ShortSkips:        c.shortSkips,
		SkipEntries:       c.skipEntries,
		SkipEvents:        c.skipEvents,
		NoopStreak:        c.noopStreak,
		RoundSteps:        c.modeSteps[ModeRound],
		InteractSteps:     c.modeSteps[ModeInteract],
		SkipSteps:         c.modeSteps[ModeSkip],
		Handovers:         c.handovers,
		RoundEligible:     c.denseEligible(),
	}
}

// advance executes scheduler steps in the controller-chosen mode until at
// least one interaction has been applied or the step counter reaches
// limit. target >= 0 asks for exact first-hit semantics on the leader
// count (RunUntilLeaders); target < 0 runs oblivious to leaders.
func (c *CensusSimulator[S]) advance(limit uint64, target int) {
	if c.n < 2 {
		panic("pp: a population of 1 cannot interact")
	}
	var mode HybridMode
	switch {
	case c.handover != nil:
		mode = c.handoverMode()
	case c.policy == EngineHybrid:
		mode = c.payoffMode(limit)
	default:
		mode = c.pinnedMode(limit)
	}
	if mode != c.mode {
		c.handovers++
		if mode == ModeSkip {
			c.skipEntries++
		}
	}
	c.mode = mode
	before := c.steps
	switch mode {
	case ModeRound:
		c.round(limit, target)
		c.lastRoundLen = c.steps - before
		if c.lastRoundReactive == 0 {
			c.noopRounds++
		} else {
			c.noopRounds = 0
		}
	case ModeSkip:
		c.ensureFen()
		c.skip(limit)
	default: // ModeInteract
		c.ensureFen()
		if c.interactOnce() {
			c.noopStreak = 0
		} else {
			c.noopStreak++
		}
		c.steps++
	}
	c.modeSteps[mode] += c.steps - before
}

// handoverMode consults the custom handover policy and clamps its answer
// to the correctness envelope: rounds are unavailable once the state
// table outgrew the dense transition matrix. (The built-in policies
// request rounds only when roundsPay, which implies denseEligible.)
func (c *CensusSimulator[S]) handoverMode() HybridMode {
	m := c.handover(c.Stats())
	if m == ModeRound && !c.denseEligible() || m > ModeSkip {
		return ModeInteract
	}
	return m
}

// roundsPay is the round cost model shared by the batch and hybrid
// policies: the budget covers a minimal round, the population is large
// enough and the live support narrow enough for aggregate draws to
// amortize.
func (c *CensusSimulator[S]) roundsPay(limit uint64) bool {
	return limit-c.steps >= batchMinRound && c.n >= c.minRoundN &&
		c.live <= c.maxLiveForRounds() && c.denseEligible()
}

// pinnedMode is the fixed policy of EngineCount and EngineBatch. Both
// sample per interaction until a long no-op streak hands the census to
// the geometric skipper, which holds it until one skip falls short of the
// break-even length. EngineBatch additionally opens a round whenever
// rounds pay, and two consecutive all-no-op rounds hand over to the
// skipper as well. Neither confirms skip entry against the exact reactive
// weight (compare payoffMode's skipPays).
func (c *CensusSimulator[S]) pinnedMode(limit uint64) HybridMode {
	switch c.mode {
	case ModeRound:
		if c.noopRounds >= batchNoopRoundStreak {
			c.noopRounds, c.noopStreak = 0, 0
			return ModeSkip
		}
	case ModeSkip:
		if c.shortSkips == 0 {
			return ModeSkip
		}
	default: // ModeInteract
		if c.noopStreak >= skipEntryStreak(c.live) {
			c.noopStreak = 0
			return ModeSkip
		}
	}
	if c.policy == EngineBatch && c.roundsPay(limit) {
		return ModeRound
	}
	return ModeInteract
}

// payoffMode is the hybrid policy. It is a pure cost model — any answer
// is correct:
//
//   - Rounds run while the census is concentrated (live support within
//     the aggregate-draw cap) and keep reacting. Two kinds of evidence
//     nominate a handover to the geometric skipper: a streak of all-no-op
//     rounds (Θ(√n) sampled interactions without one census change), or a
//     round whose realized no-op gap between census changes already
//     exceeded the skip event's break-even length (sparseRound). Either
//     candidacy is confirmed against the exact expected skip length
//     n(n−1)/wc before the handover happens (skipPays) — there is no
//     live-state cap; wide censuses like PLL's ~900-state BackUp plateau
//     skip as soon as the payoff is there.
//   - Skipping continues while realized skips beat the break-even length
//     (skipBreakEven, the skip event's index-walk cost expressed in
//     steps); a streak of short skips means the census turned
//     reaction-dense again and the controller hands back to rounds —
//     directly, unlike the pinned policies, which exit to per-interaction
//     sampling and must rediscover inertness.
//   - Per-interaction sampling covers the remainder: wide live support,
//     populations too small for rounds, or budget tails shorter than a
//     minimal round. A long sampled no-op streak hands over to the
//     skipper exactly like the pinned policies.
func (c *CensusSimulator[S]) payoffMode(limit uint64) HybridMode {
	switch c.mode {
	case ModeRound:
		if c.noopRounds >= batchNoopRoundStreak || c.sparseRound() {
			if c.skipPays() {
				return ModeSkip
			}
			// wc says skipping doesn't pay yet: re-arm the streak so the
			// next candidacy waits for fresh evidence instead of paying a
			// payoff check per round.
			c.noopRounds = 0
		}
	case ModeSkip:
		if c.shortSkips < hybridShortSkipStreak {
			return ModeSkip
		}
		// Short-skip streak: fall through to the round/interact choice.
	default: // ModeInteract
		if c.noopStreak >= skipEntryStreak(c.live) {
			if c.skipPays() {
				return ModeSkip
			}
			c.noopStreak = 0
		}
	}
	if c.roundsPay(limit) {
		return ModeRound
	}
	return ModeInteract
}

// sparseRound reports whether the last round's realized reactive density
// was low enough that geometric skipping would have covered it more
// cheaply: the mean no-op gap between census changes exceeded twice the
// skip event's break-even length. This is what rescues BackUp-plateau
// realizations whose rounds are never entirely no-op but whose census
// changes are hundreds of interactions apart.
func (c *CensusSimulator[S]) sparseRound() bool {
	return c.lastRoundReactive > 0 &&
		c.lastRoundLen >= c.lastRoundReactive*2*skipBreakEven(c.live)
}

// skipPays confirms a skip-mode candidacy against the exact current
// reactive weight: entering pays when the expected geometric skip length
// n(n−1)/wc reaches the break-even cost of one skip event. The
// reactiveWeight call may build the index (one Θ(live²) enumeration);
// candidacies fire only on streak evidence, so a build amortizes over the
// skip phase it opens — and the answer is a pure function of the census,
// never of the index's lifecycle.
func (c *CensusSimulator[S]) skipPays() bool {
	wc := c.reactiveWeight()
	if wc == 0 {
		return true
	}
	total := uint64(c.n) * uint64(c.n-1)
	return total/wc >= skipBreakEven(c.live)
}

// skip jumps over the geometrically distributed run of census-preserving
// interactions and applies the next state-changing pair, clamped to the
// step budget. Both the skip length and the changing pair are drawn from
// their exact conditional laws, so truncation at limit is
// distribution-preserving: P[skip ≥ r] = (1−p)^r is exactly the
// probability that r consecutive interactions are no-ops, and the
// geometric law is memoryless across calls.
func (c *CensusSimulator[S]) skip(limit uint64) {
	c.skipEvents++
	wc := c.reactiveWeight()
	if wc == 0 {
		// Dead census: no pair of live states reacts, so no interaction
		// can ever change anything again. Spend the whole budget at once.
		c.lastSkip = limit - c.steps
		c.shortSkips = 0
		c.steps = limit
		return
	}
	total := uint64(c.n) * uint64(c.n-1)
	remaining := limit - c.steps
	var skip uint64
	if wc < total {
		skip = c.rand.Geometric(float64(wc) / float64(total))
		if skip >= remaining {
			// Truncated by the budget: the event is deferred, not short.
			c.lastSkip = remaining
			c.shortSkips = 0
			c.steps = limit
			return
		}
	}
	// Shortness is judged against the break-even of the live support that
	// priced this event (applyPair may change live). The pinned policies
	// compare the no-op run alone; the hybrid policy counts the applied
	// interaction too.
	covered := skip
	if c.policy == EngineHybrid {
		covered++
	}
	short := covered < skipBreakEven(c.live)
	c.steps += skip + 1
	target := c.rand.Uint64n(wc)
	i, j := c.samplePair(target)
	c.applyPair(i, j)
	c.lastSkip = skip
	if short {
		c.shortSkips++
	} else {
		c.shortSkips = 0
	}
}
