package core

import (
	"fmt"

	"popproto/internal/pp"
)

// CoinStatus is the coin state a follower carries in the symmetric variant
// (Section 4). Followers are minted with J; pairs of matching followers
// dance J×J→K×K, K×K→J×J, and J×K→F0×F1, after which F0/F1 agents are
// permanent coin providers. Because the dance mints F0 and F1 only in
// pairs and flips never consume them, |F0| = |F1| holds in every reachable
// configuration — the invariant that makes every leader flip exactly fair.
type CoinStatus uint8

const (
	// CoinNone marks agents that carry no coin (leaders, X/Y agents).
	CoinNone CoinStatus = iota
	// CoinJ is the freshly minted follower coin status.
	CoinJ
	// CoinK is the intermediate coin status.
	CoinK
	// CoinF0 providers make a leader's flip come up heads.
	CoinF0
	// CoinF1 providers make a leader's flip come up tails.
	CoinF1
)

// String implements fmt.Stringer.
func (c CoinStatus) String() string {
	switch c {
	case CoinNone:
		return "-"
	case CoinJ:
		return "J"
	case CoinK:
		return "K"
	case CoinF0:
		return "F0"
	case CoinF1:
		return "F1"
	default:
		return fmt.Sprintf("Coin(%d)", uint8(c))
	}
}

// DuelStatus is the leader-only tie-breaking sub-state the symmetric
// variant adds for epoch 4. The paper's line 58 ("responder yields") is
// inherently asymmetric; Section 4 does not spell out its replacement, so
// this variant uses the following scheme: two leaders in *identical*
// states both become DuelPending (legal, p = q ⇒ p′ = q′), a pending
// leader converts its next coin observation into DuelZero/DuelOne, and two
// leaders in *distinct* states resolve by the deterministic lexicographic
// rule, which the acquired duel bits force to apply eventually.
type DuelStatus uint8

const (
	// DuelNone means no duel in progress.
	DuelNone DuelStatus = iota
	// DuelPending means the leader owes itself a duel coin flip.
	DuelPending
	// DuelZero is an acquired duel bit of 0.
	DuelZero
	// DuelOne is an acquired duel bit of 1.
	DuelOne
)

// String implements fmt.Stringer.
func (d DuelStatus) String() string {
	switch d {
	case DuelNone:
		return "none"
	case DuelPending:
		return "pending"
	case DuelZero:
		return "0"
	case DuelOne:
		return "1"
	default:
		return fmt.Sprintf("Duel(%d)", uint8(d))
	}
}

// SymState is an agent state of the symmetric variant: the full asymmetric
// state plus the follower coin status and the leader duel sub-state.
type SymState struct {
	State
	// Coin is the follower's coin status; CoinNone on leaders and X/Y
	// agents.
	Coin CoinStatus
	// Duel is the epoch-4 tie-breaking sub-state; DuelNone on followers.
	Duel DuelStatus
}

// String renders the state compactly for traces and test failures.
func (s SymState) String() string {
	out := s.State.String()
	if s.Coin != CoinNone {
		out += " coin=" + s.Coin.String()
	}
	if s.Duel != DuelNone {
		out += " duel=" + s.Duel.String()
	}
	return out
}

// SymPLL is the symmetric variant of PLL per Section 4: a protocol whose
// transition function never uses the initiator/responder distinction when
// the two states are equal (p = q ⇒ p′ = q′), suitable for chemical
// reaction networks. Construct with NewSymmetric.
type SymPLL struct {
	params Params
}

// NewSymmetric returns the symmetric protocol for the given parameters.
// It panics on inconsistent parameters and on populations of exactly two
// agents: with n = 2 the two agents provably stay in identical states
// forever (X×X→Y×Y→X×X→…), so no deterministic symmetric protocol can
// elect a leader; the paper implicitly assumes n ≥ 3.
func NewSymmetric(params Params) *SymPLL {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.N == 2 {
		panic("core: symmetric leader election is impossible for n = 2")
	}
	return &SymPLL{params: params}
}

// NewSymmetricForN is shorthand for NewSymmetric(NewParams(n)).
func NewSymmetricForN(n int) *SymPLL { return NewSymmetric(NewParams(n)) }

// Params returns the protocol's parameters.
func (p *SymPLL) Params() Params { return p.params }

// Name implements pp.Protocol.
func (p *SymPLL) Name() string { return "PLL-sym" }

// InitialState implements pp.Protocol.
func (p *SymPLL) InitialState() SymState {
	return SymState{State: State{Leader: true, Status: StatusX, Epoch: 1, Init: 1}}
}

// Output implements pp.Protocol.
func (p *SymPLL) Output(s SymState) pp.Role {
	if s.Leader {
		return pp.Leader
	}
	return pp.Follower
}

// Transition implements pp.Protocol. The skeleton is Algorithm 1 with the
// two asymmetric ingredients replaced per Section 4: the status dance
// assigns A/B without using roles, and every coin flip reads the partner
// follower's F0/F1 coin status instead of the initiator/responder role.
func (p *SymPLL) Transition(s0, s1 SymState) (SymState, SymState) {
	// Follower coin dance (role-free; covers both orders explicitly). It
	// runs before status assignment so that a follower minted in this very
	// interaction keeps its fresh J coin.
	coinDance(&s0, &s1)

	p.assignStatus(&s0, &s1)

	// Line 7: ticks are per-interaction flags.
	s0.Tick, s1.Tick = false, false

	// Line 8: CountUp is role-free and shared with the asymmetric protocol.
	countUp(&s0.State, &s1.State, uint16(p.params.CMax))

	// Line 9: a new color advances the epoch (saturating at 4).
	if s0.Tick {
		s0.Epoch = min(s0.Epoch+1, 4)
	}
	if s1.Tick {
		s1.Epoch = min(s1.Epoch+1, 4)
	}

	// Line 10: epochs synchronize to the maximum.
	e := max(s0.Epoch, s1.Epoch)
	s0.Epoch, s1.Epoch = e, e

	// Lines 11–15.
	refreshOnEpochEntry(&s0.State, uint8(p.params.Phi))
	refreshOnEpochEntry(&s1.State, uint8(p.params.Phi))

	// Lines 16–22 with symmetric modules.
	switch e {
	case 1:
		p.symQuickElimination(&s0, &s1)
	case 2, 3:
		p.symTournament(&s0, &s1)
	default:
		p.symBackUp(&s0, &s1)
	}

	normalizeSym(&s0)
	normalizeSym(&s1)
	return s0, s1
}

// assignStatus replaces lines 1–6 with the role-free dance of Section 4:
// X×X→Y×Y, Y×Y→X×X, X×Y→A×B (the X side becomes the candidate), and an
// X or Y agent that meets an already-assigned agent joins late as a
// non-lottery candidate, exactly like line 5.
func (p *SymPLL) assignStatus(s0, s1 *SymState) {
	fresh := func(s *SymState) bool { return s.Status == StatusX || s.Status == StatusY }
	switch {
	case s0.Status == StatusX && s1.Status == StatusX:
		s0.Status, s1.Status = StatusY, StatusY
	case s0.Status == StatusY && s1.Status == StatusY:
		s0.Status, s1.Status = StatusX, StatusX
	case s0.Status == StatusX && s1.Status == StatusY:
		makeCandidate(s0)
		makeTimer(s1)
	case s0.Status == StatusY && s1.Status == StatusX:
		makeTimer(s0)
		makeCandidate(s1)
	default:
		if fresh(s0) {
			makeLateJoiner(s0)
		}
		if fresh(s1) {
			makeLateJoiner(s1)
		}
	}
}

func makeCandidate(s *SymState) {
	s.Status, s.LevelQ, s.Done, s.Leader = StatusA, 0, false, true
}

func makeTimer(s *SymState) {
	s.Status, s.Count, s.Leader = StatusB, 0, false
	s.Coin = CoinJ
}

func makeLateJoiner(s *SymState) {
	s.Status, s.LevelQ, s.Done, s.Leader = StatusA, 0, true, false
	s.Coin = CoinJ
}

// coinDance applies the follower coin rules of Section 4: J×J→K×K,
// K×K→J×J, J×K→F0×F1. F0/F1 never change again and flips never consume
// them, so F0 and F1 are minted only in pairs and |F0| = |F1| always.
//
// One completion beyond the paper's sketch: a leader
// meeting a J/K follower toggles that follower's coin. Without it the
// configuration "two leaders + exactly two followers" (reachable for
// n = 4) deadlocks: the two followers only ever dance with each other, in
// lockstep (J,J)→(K,K)→(J,J)→…, so J×K never occurs, no F0/F1 is ever
// minted, and no leader can ever flip a coin again. The toggle is
// role-free, touches only J/K (so |F0| = |F1| is preserved), and breaks
// the followers' lockstep through their independent meetings with leaders.
func coinDance(s0, s1 *SymState) {
	if s0.Leader != s1.Leader {
		f := s0
		if s0.Leader {
			f = s1
		}
		switch f.Coin {
		case CoinJ:
			f.Coin = CoinK
		case CoinK:
			f.Coin = CoinJ
		}
		return
	}
	if s0.Leader || s1.Leader {
		return
	}
	switch {
	case s0.Coin == CoinJ && s1.Coin == CoinJ:
		s0.Coin, s1.Coin = CoinK, CoinK
	case s0.Coin == CoinK && s1.Coin == CoinK:
		s0.Coin, s1.Coin = CoinJ, CoinJ
	case s0.Coin == CoinJ && s1.Coin == CoinK:
		s0.Coin, s1.Coin = CoinF0, CoinF1
	case s0.Coin == CoinK && s1.Coin == CoinJ:
		s0.Coin, s1.Coin = CoinF1, CoinF0
	}
}

// flip reads the partner follower's coin: +1 heads, -1 tails, 0 no coin
// available (partner is J/K or not a coin carrier).
func flip(partner *SymState) int {
	switch partner.Coin {
	case CoinF0:
		return +1
	case CoinF1:
		return -1
	default:
		return 0
	}
}

// symQuickElimination is Algorithm 3 with coin-status flips.
func (p *SymPLL) symQuickElimination(s0, s1 *SymState) {
	if s0.Leader && !s1.Leader && !s0.Done {
		switch flip(s1) {
		case +1:
			s0.LevelQ = min(s0.LevelQ+1, uint16(p.params.LMax))
		case -1:
			s0.Done = true
		}
	}
	if s1.Leader && !s0.Leader && !s1.Done {
		switch flip(s0) {
		case +1:
			s1.LevelQ = min(s1.LevelQ+1, uint16(p.params.LMax))
		case -1:
			s1.Done = true
		}
	}
	qeEpidemic(&s0.State, &s1.State)
}

// symTournament is Algorithm 4 with coin-status flips.
func (p *SymPLL) symTournament(s0, s1 *SymState) {
	phi := uint8(p.params.Phi)
	if s0.Leader && !s1.Leader && s0.Index < phi {
		switch flip(s1) {
		case +1:
			s0.Rand = 2 * s0.Rand
			s0.Index = min(s0.Index+1, phi)
		case -1:
			s0.Rand = 2*s0.Rand + 1
			s0.Index = min(s0.Index+1, phi)
		}
	}
	if s1.Leader && !s0.Leader && s1.Index < phi {
		switch flip(s0) {
		case +1:
			s1.Rand = 2 * s1.Rand
			s1.Index = min(s1.Index+1, phi)
		case -1:
			s1.Rand = 2*s1.Rand + 1
			s1.Index = min(s1.Index+1, phi)
		}
	}
	tournamentEpidemic(&s0.State, &s1.State, phi)
}

// symBackUp is Algorithm 5 with coin-status flips and the symmetric
// replacement of line 58 documented on DuelStatus.
func (p *SymPLL) symBackUp(s0, s1 *SymState) {
	// Lines 51–53: levelB race flips, gated on a fresh tick as in the
	// asymmetric protocol, with heads read from the partner's coin.
	if s0.Tick && s0.Leader && !s1.Leader && flip(s1) == +1 {
		s0.LevelB = min(s0.LevelB+1, uint16(p.params.LMax))
	}
	if s1.Tick && s1.Leader && !s0.Leader && flip(s0) == +1 {
		s1.LevelB = min(s1.LevelB+1, uint16(p.params.LMax))
	}

	// Duel bit acquisition: a pending leader converts its next coin
	// observation into a duel bit.
	if s0.Leader && s0.Duel == DuelPending && !s1.Leader {
		switch flip(s1) {
		case +1:
			s0.Duel = DuelZero
		case -1:
			s0.Duel = DuelOne
		}
	}
	if s1.Leader && s1.Duel == DuelPending && !s0.Leader {
		switch flip(s0) {
		case +1:
			s1.Duel = DuelZero
		case -1:
			s1.Duel = DuelOne
		}
	}

	backupEpidemic(&s0.State, &s1.State)

	// Line 58 replacement. After backupEpidemic two surviving leaders have
	// equal levelB. Identical states must map identically: both become
	// pending (also the re-flip path for equal duel bits). Distinct states
	// resolve deterministically: the lexicographically smaller one yields.
	if s0.Leader && s1.Leader {
		if *s0 == *s1 {
			s0.Duel, s1.Duel = DuelPending, DuelPending
		} else if symLess(*s0, *s1) {
			s0.Leader = false
			s1.Duel = DuelNone
		} else {
			s1.Leader = false
			s0.Duel = DuelNone
		}
	}
}

// symLess is a deterministic total order on SymState used by the symmetric
// tie-break. Any total order works; this one compares the duel bit first so
// that freshly acquired bits are the usual deciders.
func symLess(a, b SymState) bool {
	if a.Duel != b.Duel {
		return a.Duel < b.Duel
	}
	if a.LevelB != b.LevelB {
		return a.LevelB < b.LevelB
	}
	if a.Color != b.Color {
		return a.Color < b.Color
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Rand != b.Rand {
		return a.Rand < b.Rand
	}
	if a.LevelQ != b.LevelQ {
		return a.LevelQ < b.LevelQ
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	if a.Tick != b.Tick {
		return !a.Tick
	}
	if a.Init != b.Init {
		return a.Init < b.Init
	}
	if a.Status != b.Status {
		return a.Status < b.Status
	}
	if a.Done != b.Done {
		return !a.Done
	}
	if a.Coin != b.Coin {
		return a.Coin < b.Coin
	}
	return false
}

// normalizeSym enforces the coin/duel canonical form at the end of every
// transition: exactly the followers carry coins (a just-demoted leader is
// minted a J coin, the paper's "initial status J is assigned"), and only
// leaders carry duel sub-states.
func normalizeSym(s *SymState) {
	if s.Leader {
		// Pristine X/Y agents are always leaders, so this branch also
		// keeps them coin-free.
		s.Coin = CoinNone
		return
	}
	if s.Coin == CoinNone {
		s.Coin = CoinJ
	}
	s.Duel = DuelNone
}
