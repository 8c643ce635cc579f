// Package registry is the string-keyed catalog of every population
// protocol in the repository. It is the single place where protocols are
// constructed from untyped parameters: the command-line tools, the
// examples, the experiment harness and the popprotod simulation service
// all resolve a protocol name plus a Spec here and get back a type-erased
// Election they can drive without knowing the protocol's state type.
//
// The generic simulation API (pp.Protocol[S], pp.Runner[S]) is
// compile-time parameterized by the state type S; a network service or a
// flag parser has no S. Each catalog entry therefore closes over its
// concrete state type once, at registration, and exposes the erased
// Election surface — everything observable (steps, parallel time, leader
// counts, censuses rendered as strings) without the type parameter.
//
// To add a protocol: implement pp.Protocol[S], append an entry to the
// catalog in this file, and every consumer — leaderelect, the comparison
// example, the Table 1 harness row, the HTTP service — picks it up by
// name.
package registry

import (
	"errors"
	"fmt"
	"strings"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/epidemic"
	"popproto/internal/pp"
)

// ErrBadSpec reports a Spec the registry rejected; errors.Is(err, ErrBadSpec)
// distinguishes caller mistakes (HTTP 400s) from internal failures.
var ErrBadSpec = errors.New("registry: invalid spec")

// Spec selects and parameterizes a protocol. The zero values of Engine,
// Seed and M are meaningful defaults: the per-agent engine, seed 0, and
// the protocol's canonical knowledge parameter.
type Spec struct {
	// Protocol is the catalog key (see Keys).
	Protocol string
	// N is the population size; each entry requires N ≥ its MinN.
	N int
	// Engine selects the simulation engine.
	Engine pp.Engine
	// Seed seeds the scheduler.
	Seed uint64
	// M is the knowledge parameter of the PLL variants; 0 selects the
	// canonical m = ⌈lg n⌉. Entries that take no m reject nonzero values.
	M int
}

// ParamDoc documents one protocol-specific Spec knob for catalog listings.
type ParamDoc struct {
	// Name is the Spec field (and JSON job-spec field) spelling.
	Name string
	// Doc is a one-line description including the legal range.
	Doc string
}

// Entry is one catalog row: documentation plus the construction and
// sizing functions for a protocol.
type Entry struct {
	// Key is the registry key ("pll", "angluin", …).
	Key string
	// Summary is a one-line description for catalog listings.
	Summary string
	// States and Time are the paper's asymptotic states-per-agent and
	// expected stabilization time (the Table 1 columns).
	States string
	Time   string
	// Target is the leader count at which a run counts as stabilized:
	// 1 for elections, 0 for the epidemic coverage workload (whose
	// "leaders" are the agents not yet reached).
	Target int
	// MinN is the smallest population the entry accepts: 2 wherever the
	// scheduler's one ordered pair of distinct agents suffices, 3 for the
	// symmetric PLL variant, whose two agents at n = 2 stay in identical
	// states forever (see core.NewSymmetric).
	MinN int
	// Params documents the protocol-specific Spec knobs beyond
	// n/engine/seed.
	Params []ParamDoc
	// CensusFriendly reports whether the protocol's runs visit few enough
	// distinct states for the census-based engines (count, batch) to pay:
	// true for every entry except MaxID, whose Θ(n) random identifiers
	// grow the census toward one state per agent. Every engine remains
	// *valid* for every entry — this is advisory sizing metadata, surfaced
	// by the catalog listings and used for the engine recommendation.
	CensusFriendly bool

	// check validates the protocol-specific Spec knobs; nil means the
	// entry takes none beyond the shared fields (then noM applies).
	check func(Spec) error
	build func(Spec) (Election, error)
	// describe renders an election's Description from its spec, on the
	// first call, so building a run formats nothing.
	describe   func(Spec) string
	stateCount func(n, m int) int
	budget     func(n int) uint64
}

// StateCount returns the states-per-agent count for a population of size n
// with knowledge parameter m (0 = canonical), counted as Table 1 counts
// them.
func (e Entry) StateCount(n, m int) int { return e.stateCount(n, m) }

// RecommendedEngine returns the engine best suited to this entry at
// population size n: the per-agent engine for census-hostile protocols
// (MaxID) and for small populations, where its flat per-interaction cost
// wins, and the hybrid engine beyond that — it starts in the batch
// engine's collision-free rounds and hands the census to per-interaction
// or geometric no-op-skipping mode whenever the measured payoff flips, so
// it is never slower than the best fixed choice by more than the
// (constant-cost) mode controller. Any engine is valid; this is the
// default a frontend should pick when the caller does not care.
func (e Entry) RecommendedEngine(n int) pp.Engine {
	if !e.CensusFriendly {
		return pp.EngineAgent
	}
	if n < 1<<16 {
		return pp.EngineAgent
	}
	return pp.EngineHybrid
}

// SuitableEngines returns the engines that scale to large n for this
// entry, in preference order (all engines are valid at any size).
func (e Entry) SuitableEngines() []pp.Engine {
	if !e.CensusFriendly {
		return []pp.Engine{pp.EngineAgent}
	}
	return []pp.Engine{pp.EngineHybrid, pp.EngineBatch, pp.EngineCount, pp.EngineAgent}
}

// StepBudget returns a generous default interaction budget for a
// population of size n: thousands of expected stabilization times. Runs
// exceeding it are declared non-stabilizing rather than looped forever;
// the service uses it as the default job budget.
func (e Entry) StepBudget(n int) uint64 { return e.budget(n) }

// Budget returns the step budget of a run capped at maxParallelTime
// parallel time units: StepBudget(n) when the cap is 0, else the cap in
// steps if that is smaller. The cap can only shorten a run — the
// default is already thousands of expected stabilization times, and an
// unbounded client value would pin a worker near-forever (and overflow
// the float→uint64 conversion). It is the one budget rule of jobs,
// experiments and sweep cells; a negative cap wraps ErrBadSpec.
func (e Entry) Budget(n int, maxParallelTime float64) (uint64, error) {
	if maxParallelTime < 0 {
		return 0, fmt.Errorf("%w: negative maxParallelTime %g", ErrBadSpec, maxParallelTime)
	}
	budget := e.StepBudget(n)
	if steps := maxParallelTime * float64(n); maxParallelTime > 0 && steps < float64(budget) {
		budget = uint64(steps)
	}
	return budget, nil
}

// LogBudget caps (poly)logarithmic-time protocols: thousands of expected
// stabilization times of headroom, so a non-stabilizing verdict is
// meaningful. It is the shared definition the experiment harness budgets
// from too.
func LogBudget(n int) uint64 {
	return uint64(4000) * uint64(n) * uint64(core.CeilLog2(n)+1)
}

// LinearBudget is LogBudget's counterpart for Θ(n)-parallel-time
// protocols.
func LinearBudget(n int) uint64 {
	return 100*uint64(n)*uint64(n) + 100_000
}

// scaled returns f scaled by the constant factor c.
func scaled(c uint64, f func(int) uint64) func(int) uint64 {
	return func(n int) uint64 { return c * f(n) }
}

// noM rejects a nonzero M for entries without a knowledge parameter and
// returns the spec unchanged otherwise.
func noM(spec Spec) error {
	if spec.M != 0 {
		return fmt.Errorf("%w: protocol %q takes no m parameter (got m=%d)",
			ErrBadSpec, spec.Protocol, spec.M)
	}
	return nil
}

// pllCheck validates the PLL variants' knowledge parameter against the
// paper's m ≥ ⌈lg n⌉ requirement.
func pllCheck(spec Spec) error {
	if _, err := core.ParamsFor(spec.N, spec.M); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// catalog is the registry, in Table 1 / report order. It is assigned in
// init rather than a composite-literal initializer because the build
// closures reach back into the catalog (via wrap → Lookup) and would
// otherwise form a package-initialization cycle.
var catalog []Entry

func init() {
	catalog = []Entry{
		{
			Key:            "pll",
			CensusFriendly: true,
			Summary:        "PLL, the paper's protocol (Algorithm 1): QuickElimination, two Tournaments, BackUp",
			States:         "O(log n)",
			Time:           "O(log n)",
			Target:         1,
			MinN:           2,
			Params: []ParamDoc{{
				Name: "m",
				Doc:  "knowledge parameter m ≥ ⌈lg n⌉ with m = Θ(log n); 0 = canonical ⌈lg n⌉",
			}},
			check: pllCheck,
			build: func(spec Spec) (Election, error) {
				params, err := core.ParamsFor(spec.N, spec.M)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
				}
				return wrap[core.State](spec, core.New(params)), nil
			},
			describe: func(spec Spec) string {
				params, _ := core.ParamsFor(spec.N, spec.M)
				return fmt.Sprintf("PLL with n=%d m=%d (lmax=%d cmax=%d Φ=%d), %d states/agent",
					spec.N, params.M, params.LMax, params.CMax, params.Phi, params.StateSpaceSize())
			},
			stateCount: func(n, m int) int {
				params, err := core.ParamsFor(n, m)
				if err != nil {
					return 0
				}
				return params.StateSpaceSize()
			},
			budget: LogBudget,
		},
		{
			Key:            "pll-sym",
			CensusFriendly: true,
			Summary:        "symmetric PLL variant (§4): follower-minted fair coins, symmetric duels",
			States:         "O(log n)",
			Time:           "O(log n)",
			Target:         1,
			MinN:           3,
			Params: []ParamDoc{{
				Name: "m",
				Doc:  "knowledge parameter m ≥ ⌈lg n⌉ with m = Θ(log n); 0 = canonical ⌈lg n⌉",
			}},
			check: pllCheck,
			build: func(spec Spec) (Election, error) {
				params, err := core.ParamsFor(spec.N, spec.M)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
				}
				return wrap[core.SymState](spec, core.NewSymmetric(params)), nil
			},
			describe: func(spec Spec) string {
				params, _ := core.ParamsFor(spec.N, spec.M)
				return fmt.Sprintf("symmetric PLL with n=%d m=%d", spec.N, params.M)
			},
			// Coin and duel sub-states multiply the Table 3 count by the
			// constant 4 (coins) + 4 (duels).
			stateCount: func(n, m int) int {
				params, err := core.ParamsFor(n, m)
				if err != nil {
					return 0
				}
				return params.StateSpaceSize() * 8
			},
			budget: scaled(40, LogBudget),
		},
		{
			Key:            "angluin",
			CensusFriendly: true,
			Summary:        "Angluin et al. 2006 folklore protocol: two states, leaders duel",
			States:         "O(1)",
			Time:           "O(n)",
			Target:         1,
			MinN:           2,
			build: func(spec Spec) (Election, error) {
				if err := noM(spec); err != nil {
					return nil, err
				}
				return wrap[baseline.AngluinState](spec, baseline.Angluin{}), nil
			},
			describe: func(spec Spec) string {
				return fmt.Sprintf("Angluin 2006 with n=%d, 2 states/agent", spec.N)
			},
			stateCount: func(int, int) int { return baseline.Angluin{}.StateCount() },
			budget:     LinearBudget,
		},
		{
			Key:            "lottery",
			CensusFriendly: true,
			Summary:        "lottery election in the style of Alistarh et al. 2017: geometric levels, max epidemic, residual duels",
			States:         "O(log n)",
			Time:           "Θ(n) (simplified; orig. polylog)",
			Target:         1,
			MinN:           2,
			build: func(spec Spec) (Election, error) {
				if err := noM(spec); err != nil {
					return nil, err
				}
				return wrap[baseline.LotteryState](spec, baseline.NewLottery(spec.N)), nil
			},
			describe: func(spec Spec) string {
				p := baseline.NewLottery(spec.N)
				return fmt.Sprintf("Lottery with n=%d (level cap %d), %d states/agent",
					spec.N, p.LevelMax(), p.StateCount())
			},
			stateCount: func(n, _ int) int { return baseline.NewLottery(n).StateCount() },
			budget:     LinearBudget,
		},
		{
			Key:            "maxid",
			CensusFriendly: false,
			Summary:        "MST18-style max-identifier election: random IDs, max epidemic",
			States:         "poly(n)",
			Time:           "O(log n)",
			Target:         1,
			MinN:           2,
			build: func(spec Spec) (Election, error) {
				if err := noM(spec); err != nil {
					return nil, err
				}
				return wrap[baseline.MaxIDState](spec, baseline.NewMaxID(spec.N)), nil
			},
			describe: func(spec Spec) string {
				return fmt.Sprintf("MaxID with n=%d (%d-bit identifiers)", spec.N, baseline.NewMaxID(spec.N).Width())
			},
			stateCount: func(n, _ int) int { return baseline.NewMaxID(n).StateCount() },
			budget:     LogBudget,
		},
		{
			Key:            "epidemic",
			CensusFriendly: true,
			Summary:        "one-way SI epidemic (Lemma 2) as a coverage workload; leaders = agents not yet reached, stabilizes at 0",
			States:         "O(1)",
			Time:           "O(log n)",
			Target:         0,
			MinN:           2,
			build: func(spec Spec) (Election, error) {
				if err := noM(spec); err != nil {
					return nil, err
				}
				return wrap[epidemic.SIState](spec, epidemic.SI{}), nil
			},
			describe: func(spec Spec) string {
				return fmt.Sprintf("SI epidemic with n=%d, 3 states/agent", spec.N)
			},
			stateCount: func(int, int) int { return 3 },
			budget:     LogBudget,
		},
	}
}

// Keys returns the catalog keys in catalog order.
func Keys() []string {
	keys := make([]string, len(catalog))
	for i, e := range catalog {
		keys[i] = e.Key
	}
	return keys
}

// Entries returns the catalog in catalog order.
func Entries() []Entry {
	return append([]Entry(nil), catalog...)
}

// Lookup returns the entry for key.
func Lookup(key string) (Entry, bool) {
	for _, e := range catalog {
		if e.Key == key {
			return e, true
		}
	}
	return Entry{}, false
}

// validate resolves spec's entry and checks the spec-level invariants
// shared by all entries. Protocol-specific parameter validation happens in
// the entry's build function.
func validate(spec Spec) (Entry, error) {
	entry, ok := Lookup(spec.Protocol)
	if !ok {
		return Entry{}, fmt.Errorf("%w: unknown protocol %q (valid: %s)",
			ErrBadSpec, spec.Protocol, strings.Join(Keys(), ", "))
	}
	if spec.N < entry.MinN {
		return Entry{}, fmt.Errorf("%w: population size %d < %d for protocol %q",
			ErrBadSpec, spec.N, entry.MinN, spec.Protocol)
	}
	// Derived from pp.Engines, so a new engine is accepted here the moment
	// it exists rather than when someone remembers this switch. The
	// pseudo-engine "auto" is also accepted: it resolves to the entry's
	// recommended engine (ResolveEngine) before any population is built.
	if spec.Engine != pp.EngineAuto && !spec.Engine.Valid() {
		return Entry{}, fmt.Errorf("%w: unknown engine %v", ErrBadSpec, spec.Engine)
	}
	return entry, nil
}

// ResolveEngine returns spec with the pseudo-engine pp.EngineAuto
// replaced by the entry's recommendation for spec.N; specs naming a
// concrete engine pass through unchanged. Every consumer that derives
// anything from the engine — canonical cache keys, derived seeds, actual
// simulators — must resolve first, so that an "auto" spec and the
// explicit spec it resolves to are one identity.
func ResolveEngine(spec Spec) (Spec, error) {
	if spec.Engine != pp.EngineAuto {
		return spec, nil
	}
	entry, ok := Lookup(spec.Protocol)
	if !ok {
		return Spec{}, fmt.Errorf("%w: unknown protocol %q (valid: %s)",
			ErrBadSpec, spec.Protocol, strings.Join(Keys(), ", "))
	}
	spec.Engine = entry.RecommendedEngine(spec.N)
	return spec, nil
}

// Validate checks spec fully — catalog membership, the shared invariants,
// and the protocol-specific parameters — without constructing a
// population, and returns the catalog entry it resolves to. New allocates
// Θ(n) memory on the per-agent engine, so synchronous frontends (the HTTP
// service's 4xx path) validate with this first.
func Validate(spec Spec) (Entry, error) {
	entry, err := validate(spec)
	if err != nil {
		return Entry{}, err
	}
	check := entry.check
	if check == nil {
		check = noM
	}
	if err := check(spec); err != nil {
		return Entry{}, err
	}
	return entry, nil
}

// New validates spec and constructs a fresh election on the selected
// engine. All validation failures are reported as errors wrapping
// ErrBadSpec — never panics — so network and command-line frontends can
// surface them to the caller.
func New(spec Spec) (Election, error) {
	entry, err := Validate(spec)
	if err != nil {
		return nil, err
	}
	if spec, err = ResolveEngine(spec); err != nil {
		return nil, err
	}
	return entry.build(spec)
}
