package baseline

import (
	"fmt"

	"popproto/internal/core"
	"popproto/internal/pp"
)

// MaxIDState is the agent state of the MaxID protocol.
type MaxIDState struct {
	// ID is the random identifier assembled so far (Index bits), then the
	// largest identifier learned through the epidemic.
	ID uint64
	// Index counts assembled bits; reaching the protocol's width means the
	// identifier is complete.
	Index uint8
	// Leader is the output variable.
	Leader bool
}

// MaxID is an MST18-style protocol (Michail, Spirakis, Theofilatos 2018:
// O(n) states, O(log n) time): every agent assembles a random identifier
// of 2⌈lg n⌉ bits from its interaction roles, the maximum identifier
// spreads by one-way epidemic, and non-maximal agents yield. With a
// polynomially large identifier space the maximum is unique with
// probability 1 − O(1/n), so the expected stabilization time is
// O(log n) + O(1/n)·O(n) = O(log n); the identifier space is what buys
// the speed, which is Table 1's "linear states / log time" row shape.
// It reproduces that row's shape, not the original protocol.
type MaxID struct {
	width uint8
}

// NewMaxID returns the protocol sized for populations of about n agents:
// identifier width 2·⌈lg n⌉ bits (at least 2, at most 60). It panics if
// n < 1.
func NewMaxID(n int) *MaxID {
	if n < 1 {
		panic(fmt.Sprintf("baseline: population size %d < 1", n))
	}
	w := 2 * core.CeilLog2(n)
	w = max(w, 2)
	w = min(w, 60)
	return &MaxID{width: uint8(w)}
}

// Width returns the identifier width in bits.
func (m *MaxID) Width() int { return int(m.width) }

// Name implements pp.Protocol.
func (m *MaxID) Name() string { return "MaxID" }

// InitialState implements pp.Protocol.
func (m *MaxID) InitialState() MaxIDState {
	return MaxIDState{Leader: true}
}

// Output implements pp.Protocol.
func (m *MaxID) Output(s MaxIDState) pp.Role {
	if s.Leader {
		return pp.Leader
	}
	return pp.Follower
}

// Transition implements pp.Protocol.
func (m *MaxID) Transition(a, b MaxIDState) (MaxIDState, MaxIDState) {
	// Identifier assembly: both participants extend, with complementary
	// bits (initiator 0, responder 1) — two agents that ever met directly
	// are guaranteed to differ at that position.
	if a.Index < m.width {
		a.ID = 2 * a.ID
		a.Index++
	}
	if b.Index < m.width {
		b.ID = 2*b.ID + 1
		b.Index++
	}

	// One-way epidemic of the maximum completed identifier.
	if a.Index == m.width && b.Index == m.width {
		switch {
		case a.ID < b.ID:
			a.ID = b.ID
			a.Leader = false
		case b.ID < a.ID:
			b.ID = a.ID
			b.Leader = false
		default:
			// Identical identifiers: direct duel.
			if a.Leader && b.Leader {
				b.Leader = false
			}
		}
	}
	return a, b
}

// StateCount returns the number of states per agent (Table 1 column),
// dominated by the 2^width completed identifiers: Θ(n²) for the default
// width — polynomial, the row shape of MST18.
func (m *MaxID) StateCount() int {
	total := 0
	for i := 0; i <= int(m.width); i++ {
		total += 1 << uint(min(i, 62))
		if total < 0 { // overflow guard
			return int(^uint(0) >> 1)
		}
	}
	return 2 * total // × leader flag
}
