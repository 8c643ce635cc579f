package baseline

import (
	"testing"
	"testing/quick"

	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
)

func TestAngluinTransitionTable(t *testing.T) {
	var p Angluin
	cases := []struct {
		a, b, wantA, wantB AngluinState
	}{
		{true, true, true, false},  // duel: responder yields
		{true, false, true, false}, // leader-follower: no change
		{false, true, false, true}, // follower-leader: no change
		{false, false, false, false},
	}
	for _, c := range cases {
		gotA, gotB := p.Transition(c.a, c.b)
		if gotA != c.wantA || gotB != c.wantB {
			t.Errorf("Transition(%v,%v) = (%v,%v), want (%v,%v)",
				c.a, c.b, gotA, gotB, c.wantA, c.wantB)
		}
	}
	if p.StateCount() != 2 {
		t.Errorf("StateCount = %d", p.StateCount())
	}
}

func TestAngluinStabilizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 500} {
		sim := pp.NewSimulator[AngluinState](Angluin{}, n, uint64(n))
		budget := uint64(n) * uint64(n) * 50
		if budget < 1000 {
			budget = 1000
		}
		if _, ok := sim.RunUntilLeaders(1, budget); !ok {
			t.Fatalf("n=%d: did not stabilize", n)
		}
		if !sim.VerifyStable(uint64(100 * n)) {
			t.Fatalf("n=%d: unstable", n)
		}
	}
}

// TestAngluinLinearTimeShape: the constant-state protocol's expected
// parallel time grows roughly linearly in n (Ω(n) by DS18). Doubling n
// should roughly double the time; we assert at least a 1.4× growth to
// reject sublinear behaviour while tolerating run-to-run noise.
func TestAngluinLinearTimeShape(t *testing.T) {
	mean := func(n int) float64 {
		times := make([]float64, 30)
		pptest.Parallel(len(times), 0, 7, func(rep int, seed uint64) {
			sim := pp.NewSimulator[AngluinState](Angluin{}, n, seed)
			steps, _ := sim.RunUntilLeaders(1, uint64(n)*uint64(n)*50)
			times[rep] = float64(steps) / float64(n)
		})
		var sum float64
		for _, x := range times {
			sum += x
		}
		return sum / float64(len(times))
	}
	t128, t256, t512 := mean(128), mean(256), mean(512)
	if t256/t128 < 1.4 || t512/t256 < 1.4 {
		t.Fatalf("growth too slow for linear time: %.1f -> %.1f -> %.1f", t128, t256, t512)
	}
}

func TestLotteryFlipSemantics(t *testing.T) {
	l := NewLottery(1024)
	init := l.InitialState()

	a, b := l.Transition(init, init)
	if a.Level != 1 || a.Done {
		t.Fatalf("initiator after first flip: %+v", a)
	}
	if !b.Done || b.Level != 0 {
		t.Fatalf("responder after first flip: %+v", b)
	}

	// A done agent no longer flips.
	a2, _ := l.Transition(b, init)
	if a2.Level != 0 {
		t.Fatalf("done agent flipped: %+v", a2)
	}
}

func TestLotteryEpidemicAndDuel(t *testing.T) {
	l := NewLottery(1024)
	hi := LotteryState{Level: 5, Done: true, Leader: true}
	lo := LotteryState{Level: 2, Done: true, Leader: true}

	a, b := l.Transition(hi, lo)
	if !a.Leader || b.Leader || b.Level != 5 {
		t.Fatalf("epidemic: %+v, %+v", a, b)
	}

	// Equal levels: responder yields.
	a, b = l.Transition(hi, hi)
	if !a.Leader || b.Leader {
		t.Fatalf("duel: %+v, %+v", a, b)
	}

	// Follower carries the max onward without becoming a leader.
	f := LotteryState{Level: 9, Done: true, Leader: false}
	a, b = l.Transition(f, hi)
	if a.Leader || b.Leader || b.Level != 9 {
		t.Fatalf("follower epidemic: %+v, %+v", a, b)
	}
}

func TestLotteryLevelSaturates(t *testing.T) {
	l := NewLottery(1024)
	s := LotteryState{Level: uint16(l.LevelMax()), Leader: true}
	a, _ := l.Transition(s, l.InitialState())
	if int(a.Level) != l.LevelMax() {
		t.Fatalf("level overflowed: %+v", a)
	}
}

func TestLotteryStabilizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 64, 256} {
		l := NewLottery(n)
		sim := pp.NewSimulator[LotteryState](l, n, uint64(n)+5)
		budget := uint64(n)*uint64(n)*50 + 10_000
		if _, ok := sim.RunUntilLeaders(1, budget); !ok {
			t.Fatalf("n=%d: did not stabilize", n)
		}
		if !sim.VerifyStable(uint64(100 * n)) {
			t.Fatalf("n=%d: unstable", n)
		}
	}
}

func TestMaxIDAssembly(t *testing.T) {
	m := NewMaxID(16) // width 8
	if m.Width() != 8 {
		t.Fatalf("width = %d, want 8", m.Width())
	}
	a, b := m.Transition(m.InitialState(), m.InitialState())
	if a.ID != 0 || a.Index != 1 {
		t.Fatalf("initiator bit: %+v", a)
	}
	if b.ID != 1 || b.Index != 1 {
		t.Fatalf("responder bit: %+v", b)
	}
}

func TestMaxIDEpidemicAndDuel(t *testing.T) {
	m := NewMaxID(16)
	w := uint8(m.Width())
	hi := MaxIDState{ID: 200, Index: w, Leader: true}
	lo := MaxIDState{ID: 100, Index: w, Leader: true}

	a, b := m.Transition(hi, lo)
	if !a.Leader || b.Leader || b.ID != 200 {
		t.Fatalf("epidemic: %+v, %+v", a, b)
	}

	a, b = m.Transition(hi, hi)
	if !a.Leader || b.Leader {
		t.Fatalf("duel: %+v, %+v", a, b)
	}

	// Incomplete agents are shielded from the epidemic.
	part := MaxIDState{ID: 0, Index: 1, Leader: true}
	a, b = m.Transition(part, hi)
	if !a.Leader {
		t.Fatalf("incomplete agent eliminated: %+v", a)
	}
	_ = b
}

func TestMaxIDStabilizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 64, 256, 1024} {
		m := NewMaxID(n)
		sim := pp.NewSimulator[MaxIDState](m, n, uint64(n)+13)
		budget := uint64(n)*uint64(n)*20 + 100_000
		if _, ok := sim.RunUntilLeaders(1, budget); !ok {
			t.Fatalf("n=%d: did not stabilize", n)
		}
		if !sim.VerifyStable(uint64(100 * n)) {
			t.Fatalf("n=%d: unstable", n)
		}
	}
}

// TestQuickLeaderMonotone: none of the baselines ever mints a new leader.
func TestQuickLeaderMonotone(t *testing.T) {
	lot := NewLottery(256)
	mid := NewMaxID(256)
	count := func(bs ...bool) int {
		c := 0
		for _, b := range bs {
			if b {
				c++
			}
		}
		return c
	}
	f := func(l1, l2, d1, d2 bool, v1, v2 uint16) bool {
		a := LotteryState{Level: v1 % 51, Done: d1, Leader: l1}
		b := LotteryState{Level: v2 % 51, Done: d2, Leader: l2}
		a2, b2 := lot.Transition(a, b)
		if count(a2.Leader, b2.Leader) > count(a.Leader, b.Leader) {
			return false
		}
		am := MaxIDState{ID: uint64(v1), Index: uint8(v1 % 17), Leader: l1}
		bm := MaxIDState{ID: uint64(v2), Index: uint8(v2 % 17), Leader: l2}
		am2, bm2 := mid.Transition(am, bm)
		return count(am2.Leader, bm2.Leader) <= count(am.Leader, bm.Leader)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorsPanicOnBadN(t *testing.T) {
	for name, f := range map[string]func(){
		"lottery": func() { NewLottery(0) },
		"maxid":   func() { NewMaxID(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s constructor accepted n=0", name)
				}
			}()
			f()
		}()
	}
}

func TestStateCounts(t *testing.T) {
	if got := NewLottery(1024).StateCount(); got != 51*4 {
		t.Errorf("lottery StateCount = %d, want %d", got, 51*4)
	}
	if got := NewMaxID(4).Width(); got != 4 {
		t.Errorf("MaxID(4) width = %d, want 4", got)
	}
	if got := NewMaxID(4).StateCount(); got != 2*(1+2+4+8+16) {
		t.Errorf("MaxID(4) StateCount = %d, want %d", got, 2*31)
	}
}
