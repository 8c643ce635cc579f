package baseline

import (
	"fmt"

	"popproto/internal/core"
	"popproto/internal/pp"
)

// LotteryState is the agent state of the Lottery protocol: the geometric
// lottery level, the flipping flag and the output.
type LotteryState struct {
	// Level counts the heads seen before the first tail, then carries the
	// largest level learned through the epidemic.
	Level uint16
	// Done reports that the agent saw its first tail and stopped flipping.
	Done bool
	// Leader is the output variable.
	Leader bool
}

// Lottery is a leader election protocol in the style of the lottery
// protocol of Alistarh et al. 2017, reduced to its core as described in
// Section 3.1.1 of the reproduced paper: every agent flips a fair coin per
// interaction it participates in (initiator = heads, responder = tails),
// counting heads until the first tail; the maximum level then spreads by
// one-way epidemic and only maximum-level agents stay leaders; residual
// ties resolve by direct duel. The original adds phase machinery to reach
// polylog time; this reduction keeps only the lottery.
//
// The protocol uses Θ(log n) states and stabilizes in Θ(n) expected
// parallel time — fast (O(log n)) with constant probability, but the
// Θ(1)-probability residual ties cost Θ(n), which is precisely the gap
// PLL's Tournament+BackUp combination closes.
type Lottery struct {
	levelMax uint16
}

// NewLottery returns the protocol sized for populations of about n agents
// (the level cap is 5·⌈lg n⌉, matching PLL's lmax). It panics if n < 1.
func NewLottery(n int) *Lottery {
	if n < 1 {
		panic(fmt.Sprintf("baseline: population size %d < 1", n))
	}
	m := max(core.CeilLog2(n), 1)
	return &Lottery{levelMax: uint16(5 * m)}
}

// LevelMax returns the level cap.
func (l *Lottery) LevelMax() int { return int(l.levelMax) }

// Name implements pp.Protocol.
func (l *Lottery) Name() string { return "Lottery" }

// InitialState implements pp.Protocol.
func (l *Lottery) InitialState() LotteryState {
	return LotteryState{Leader: true}
}

// Output implements pp.Protocol.
func (l *Lottery) Output(s LotteryState) pp.Role {
	if s.Leader {
		return pp.Leader
	}
	return pp.Follower
}

// Transition implements pp.Protocol.
func (l *Lottery) Transition(a, b LotteryState) (LotteryState, LotteryState) {
	// The interaction is a simultaneous coin flip for both participants:
	// heads for the initiator, tails for the responder (Section 3.1.1).
	if !a.Done && a.Leader {
		a.Level = min(a.Level+1, l.levelMax)
	}
	if !b.Done && b.Leader {
		b.Done = true
	}

	// One-way epidemic of the maximum level among stopped agents, with
	// elimination of lagging leaders.
	if a.Done && b.Done {
		switch {
		case a.Level < b.Level:
			a.Level = b.Level
			a.Leader = false
		case b.Level < a.Level:
			b.Level = a.Level
			b.Leader = false
		default:
			// Residual duel between equal-level stopped leaders.
			if a.Leader && b.Leader {
				b.Leader = false
			}
		}
	}
	return a, b
}

// StateCount returns the number of states per agent (Table 1 column):
// level × done × leader.
func (l *Lottery) StateCount() int { return (int(l.levelMax) + 1) * 2 * 2 }
