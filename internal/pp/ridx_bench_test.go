package pp

import (
	"fmt"
	"testing"
)

// idxBenchProto is a synthetic int-state protocol with tunable support:
// a quarter of the ordered pairs are reactive (initiator advances), so
// reactive rows average width/4 responders — dense enough to be honest
// about maintenance cost, sparse enough that no-ops exist.
type idxBenchProto struct{ k int }

func (idxBenchProto) Name() string      { return "idx-bench" }
func (idxBenchProto) InitialState() int { return 0 }
func (idxBenchProto) Output(int) Role   { return Follower }
func (p idxBenchProto) Transition(a, b int) (int, int) {
	if (a+b)%4 != 0 {
		return a, b
	}
	return (a + 1) % p.k, b
}

// benchCensus builds a census with exactly live occupied states of equal
// multiplicity, with every state pre-registered in the dense table.
func benchCensus(live int) *CensusSimulator[int] {
	const perState = 64
	c := NewCountSimulator[int](idxBenchProto{k: live}, live*perState, 7)
	for s := 1; s < live; s++ {
		c.add(c.stateIndex(s), perState)
		c.add(0, -perState)
	}
	return c
}

// BenchmarkReactivePairIndex compares the two ways of keeping the reactive
// pair weights current across one census change (one agent hopping between
// two states, i.e. two count updates): the incremental index pays
// O(row+column) arithmetic per update, where the pre-index engine paid a
// full Θ(live²) re-enumeration per skip event.
func BenchmarkReactivePairIndex(b *testing.B) {
	for _, live := range []int{64, 384, 1024} {
		b.Run(fmt.Sprintf("live=%d/incremental", live), func(b *testing.B) {
			c := benchCensus(live)
			c.reactiveWeight()
			if !c.ridx.valid {
				b.Fatal("index not built")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.add(0, -1)
				c.add(1, 1)
				c.add(1, -1)
				c.add(0, 1)
			}
		})
		b.Run(fmt.Sprintf("live=%d/reenumerate", live), func(b *testing.B) {
			c := benchCensus(live)
			c.ridx.invalidate()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.collectReactivePairs()
			}
		})
	}
}
