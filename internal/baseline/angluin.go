// Package baseline implements the comparison protocols of Table 1 of the
// reproduced paper: the constant-state protocol of Angluin et al. 2006, a
// lottery protocol in the style of Alistarh et al. 2017, and an MST18-style
// max-ID protocol. Together with PLL they regenerate the table's
// states-versus-time trade-off empirically (`experiments -list` prints
// the Table 1 cells). The deliberate simplifications relative to the
// cited originals are documented on the Lottery and MaxID types.
package baseline

import "popproto/internal/pp"

// AngluinState is the two-value state space of the constant-state
// protocol: true = leader, false = follower.
type AngluinState = bool

// Angluin is the folklore constant-space leader election protocol from
// Angluin et al. 2006: all agents start as leaders and when two leaders
// meet the responder yields. It uses exactly 2 states and stabilizes in
// Θ(n) expected parallel time — the optimum for constant space by the
// Doty–Soloveichik Ω(n) lower bound (Table 2, row [DS18]).
type Angluin struct{}

// Name implements pp.Protocol.
func (Angluin) Name() string { return "Angluin2006" }

// InitialState implements pp.Protocol.
func (Angluin) InitialState() AngluinState { return true }

// Output implements pp.Protocol.
func (Angluin) Output(s AngluinState) pp.Role {
	if s {
		return pp.Leader
	}
	return pp.Follower
}

// Transition implements pp.Protocol: L×L → L×F, all else unchanged.
func (Angluin) Transition(a, b AngluinState) (AngluinState, AngluinState) {
	if a && b {
		return true, false
	}
	return a, b
}

// StateCount returns the number of states per agent (Table 1 column).
func (Angluin) StateCount() int { return 2 }

// ExpectedSteps returns the exact expected number of interactions to
// stabilization from the all-leader initial configuration: with k leaders
// a duel happens with probability k(k−1)/(n(n−1)) per step, so
//
//	E[steps] = n(n−1) · Σ_{k=2..n} 1/(k(k−1)) = n(n−1)·(1 − 1/n) = (n−1)².
//
// The closed form is used as an analytic cross-check of the simulation
// engine: measured means must match it within confidence intervals.
func (Angluin) ExpectedSteps(n int) float64 {
	if n < 1 {
		panic("baseline: population size < 1")
	}
	return float64(n-1) * float64(n-1)
}
