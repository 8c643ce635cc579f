// Package pp implements the population protocol model of Angluin et al.
// (Section 2 of the reproduced paper): a population of n anonymous agents
// over a complete interaction graph, a deterministic pairwise transition
// function, and a uniformly random scheduler that picks one ordered pair
// (initiator, responder) per step.
//
// The package provides the generic simulation engines used by every
// protocol in this repository: incremental leader accounting,
// deterministic and adversarial schedules for safety testing, state
// censuses read in O(live states), and stabilization detection.
// Replicated runs for expectation estimates live in internal/ensemble.
//
// Time is reported both in interaction steps and in parallel time
// (steps divided by n), matching the paper's convention.
package pp

// Role is an agent's externally visible output under the output function
// π_out of the leader election problem.
type Role uint8

const (
	// Follower is the output F.
	Follower Role = iota
	// Leader is the output L.
	Leader
)

// String returns "L" or "F" as the paper writes outputs.
func (r Role) String() string {
	if r == Leader {
		return "L"
	}
	return "F"
}

// Protocol is a population protocol P(Q, s_init, T, Y, π_out) with state
// set Q represented by the comparable Go type S.
//
// Transition must be a pure deterministic function: all randomness in the
// model comes from the scheduler. Implementations must be safe for
// concurrent use by multiple simulators (in practice: read-only after
// construction).
type Protocol[S comparable] interface {
	// Name identifies the protocol in reports and benchmarks.
	Name() string
	// InitialState returns s_init, the state every agent starts in.
	InitialState() S
	// Transition maps the (initiator, responder) state pair to the pair of
	// successor states, in the same order.
	Transition(initiator, responder S) (S, S)
	// Output is the output function π_out restricted to {L, F}.
	Output(S) Role
}
