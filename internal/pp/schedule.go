package pp

import "fmt"

// Schedule is a deterministic source of interactions, the γ of Section 2.
// Schedules exist to exercise safety properties ("for any schedule γ …")
// that the uniformly random scheduler alone cannot probe: starvation,
// round-robin sweeps, recorded worst cases.
type Schedule interface {
	// Next returns the next ordered interaction for a population of size n.
	Next(n int) (initiator, responder int)
}

// ScheduleFunc adapts a function to the Schedule interface.
type ScheduleFunc func(n int) (int, int)

// Next implements Schedule.
func (f ScheduleFunc) Next(n int) (int, int) { return f(n) }

// RoundRobin cycles through all ordered pairs (i, j), i ≠ j, in
// lexicographic order. It is a fair deterministic schedule: every pair
// occurs every n(n-1) steps.
type RoundRobin struct {
	i, j int
}

// Next implements Schedule.
func (r *RoundRobin) Next(n int) (int, int) {
	if n < 2 {
		panic("pp: RoundRobin needs n >= 2")
	}
	for {
		i, j := r.i, r.j
		r.j++
		if r.j >= n {
			r.j = 0
			r.i = (r.i + 1) % n
		}
		if i != j {
			return i, j
		}
	}
}

// Fixed replays a recorded finite schedule, then loops. It panics when
// constructed empty or asked for a pair out of range.
type Fixed struct {
	Pairs [][2]int
	pos   int
}

// Next implements Schedule.
func (f *Fixed) Next(n int) (int, int) {
	if len(f.Pairs) == 0 {
		panic("pp: Fixed schedule is empty")
	}
	p := f.Pairs[f.pos%len(f.Pairs)]
	f.pos++
	if p[0] >= n || p[1] >= n || p[0] < 0 || p[1] < 0 || p[0] == p[1] {
		panic(fmt.Sprintf("pp: Fixed schedule pair %v invalid for n=%d", p, n))
	}
	return p[0], p[1]
}

// Starve is an adversarial schedule that never lets agents with id >= Active
// interact: it round-robins only among the first Active agents. It is used
// to check that safety invariants hold even when part of the population is
// starved indefinitely.
type Starve struct {
	Active int
	rr     RoundRobin
}

// Next implements Schedule.
func (s *Starve) Next(n int) (int, int) {
	if s.Active < 2 {
		panic("pp: Starve needs Active >= 2")
	}
	if s.Active > n {
		s.Active = n
	}
	return s.rr.Next(s.Active)
}

// RunSchedule executes k interactions drawn from sched, advancing the step
// counter exactly as random steps do.
func (s *Simulator[S]) RunSchedule(sched Schedule, k uint64) {
	n := s.n
	for ; k > 0; k-- {
		i, j := sched.Next(n)
		s.Interact(i, j)
		s.steps++
	}
}
