package core

import (
	"testing"

	"popproto/internal/pp"
)

// TestFourAgentCoinDeadlockRegression reconstructs the configuration that
// deadlocks the paper's literal Section 4 sketch: n = 4 with two leaders
// and exactly two followers. The two followers then only ever dance with
// each other, in lockstep (J,J)→(K,K)→(J,J)→…, so J×K never occurs, no
// F0/F1 coin is ever minted, and no leader can ever flip a coin — the
// election would freeze with two leaders forever. The leader→follower J/K
// toggle (see coinDance) breaks the lockstep; this test pins the
// construction and verifies the election completes.
func TestFourAgentCoinDeadlockRegression(t *testing.T) {
	const n = 4
	p := NewSymmetric(NewParams(n))
	sim := pp.NewSimulator[SymState](p, n, 1)

	// Drive the exact adversarial prefix: pair (0,1) and (2,3) into Y×Y,
	// bounce (0,1) back to X×X, then cross-pair to mint two candidate
	// leaders and two timer followers.
	sim.Interact(0, 1) // X×X → Y×Y
	sim.Interact(2, 3) // X×X → Y×Y
	sim.Interact(0, 1) // Y×Y → X×X
	sim.Interact(0, 2) // X×Y → A×B
	sim.Interact(1, 3) // X×Y → A×B

	if sim.Leaders() != 2 {
		t.Fatalf("construction broken: %d leaders, want 2", sim.Leaders())
	}
	for _, id := range []int{2, 3} {
		s := sim.State(id)
		if s.Leader || s.Status != StatusB || s.Coin != CoinJ {
			t.Fatalf("construction broken: agent %d = %v, want B follower with J", id, s)
		}
	}

	// Under the literal paper sketch this configuration never elects.
	// With the J/K toggle it must.
	if _, ok := sim.RunUntilLeaders(1, 50_000_000); !ok {
		t.Fatalf("n=4 two-leader/two-follower configuration did not elect (%d leaders)",
			sim.Leaders())
	}
	if !sim.VerifyStable(5_000) {
		t.Fatal("unstable after election")
	}
}

// TestCoinToggle verifies the completion rule in isolation: a leader
// toggles a J/K follower's coin and leaves F0/F1 untouched.
func TestCoinToggle(t *testing.T) {
	p := testSym()
	cases := []struct {
		before, after CoinStatus
	}{
		{CoinJ, CoinK},
		{CoinK, CoinJ},
		{CoinF0, CoinF0},
		{CoinF1, CoinF1},
	}
	for _, c := range cases {
		_, f := p.Transition(symA1Leader(0, true), symA1Follower(0, c.before))
		if f.Coin != c.after {
			t.Errorf("leader×follower(%v): coin = %v, want %v", c.before, f.Coin, c.after)
		}
		// Mirrored order.
		f2, _ := p.Transition(symA1Follower(0, c.before), symA1Leader(0, true))
		if f2.Coin != c.after {
			t.Errorf("follower(%v)×leader: coin = %v, want %v", c.before, f2.Coin, c.after)
		}
	}
}
