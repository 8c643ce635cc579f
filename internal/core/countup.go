package core

// countUp implements Algorithm 2, shared verbatim by the asymmetric and
// symmetric protocols (it is role-free). Timer agents (V_B) advance their
// count-up timers (lines 23–29): a wrap of count gets the agent a new color
// and raises its tick. A color difference of one (mod 3) between the two
// participants then spreads the newer color by one-way epidemic
// (lines 30–34): the agent behind adopts it, raises its tick and — if it is
// a timer — restarts its count.
func countUp(a0, a1 *State, cmax uint16) {
	// Lines 23–29: advance timers.
	for _, a := range [2]*State{a0, a1} {
		if a.Status != StatusB {
			continue
		}
		a.Count++
		if a.Count >= cmax {
			a.Count = 0
			a.Color = (a.Color + 1) % 3
			a.Tick = true
		}
	}

	// Lines 30–34: spread a newer color. At most one direction can match:
	// colors are mod 3, so the two conditions cannot hold simultaneously.
	switch {
	case a1.Color == (a0.Color+1)%3:
		a0.Color = a1.Color
		a0.Tick = true
		if a0.Status == StatusB {
			a0.Count = 0
		}
	case a0.Color == (a1.Color+1)%3:
		a1.Color = a0.Color
		a1.Tick = true
		if a1.Status == StatusB {
			a1.Count = 0
		}
	}
}

// refreshOnEpochEntry performs lines 11–15: when an agent has entered a new
// epoch it initializes the additional variables of its new group. The
// previous group's variables are conceptually discarded (Table 3 partitions
// the additional variables by group); we zero them so that State stays in
// canonical form and the state count of Lemma 3 is preserved.
//
// The one deliberate deviation from the literal pseudo code: followers
// enter V_A∩(V_2∪V_3) with index = Φ, mirroring how
// line 5 gives late joiners done = true in V_A∩V_1. Without it, followers
// would never satisfy the index = Φ guard of line 47 and the Tournament
// nonce epidemic could not propagate through V_A as the analysis
// (Section 3.2.4) requires.
func refreshOnEpochEntry(a *State, phi uint8) {
	if a.Epoch <= a.Init {
		return
	}
	if a.Status == StatusA {
		a.LevelQ, a.Done = 0, false
		a.Rand, a.Index = 0, 0
		a.LevelB = 0
		if (a.Epoch == 2 || a.Epoch == 3) && !a.Leader {
			a.Index = phi
		}
	}
	a.Init = a.Epoch
}
