package ensemble

import "sort"

// defaultSketchCap is the per-level buffer capacity of a Sketch. Ensembles
// up to this many replicates are summarized exactly; beyond it the sketch
// degrades gracefully to a compacted summary with rank error well under 1%
// at the sizes this repository runs (tens of thousands of replicates).
const defaultSketchCap = 256

// Sketch is a deterministic, mergeable quantile summary in the KLL style:
// a stack of buffers in which a value at level i carries weight 2^i. When
// a level overflows it is compacted — sorted, every other element promoted
// to the next level, the rest discarded — with the starting parity
// alternated per level so consecutive compactions cannot systematically
// favor low or high ranks.
//
// Unlike the randomized-compaction sketches it is modeled on, compaction
// here is fully deterministic: the same sequence of Add calls always
// yields the same summary, which is what lets the ensemble executor
// promise bit-identical aggregates regardless of worker count. Memory is
// O(cap · log(n/cap)); a Sketch holding fewer than cap values is exact.
//
// The zero value is not usable; construct with newSketch. Sketch is not
// safe for concurrent use.
type Sketch struct {
	levels [][]float64 // levels[i] holds values of weight 1 << i
	parity []bool      // per-level compaction offset, flipped each compaction
	count  uint64
	cap    int
}

// newSketch returns an empty sketch with the given per-level capacity
// (<= 0 selects the default).
func newSketch(capacity int) *Sketch {
	if capacity <= 0 {
		capacity = defaultSketchCap
	}
	// A level must shrink when compacted.
	if capacity < 4 {
		capacity = 4
	}
	return &Sketch{cap: capacity}
}

// Count returns the number of values added (with multiplicity).
func (s *Sketch) Count() uint64 { return s.count }

// Clone returns an independent deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{count: s.count, cap: s.cap}
	if s.levels != nil {
		c.levels = make([][]float64, len(s.levels))
		for i, lvl := range s.levels {
			c.levels[i] = append(make([]float64, 0, s.cap), lvl...)
		}
		c.parity = append([]bool(nil), s.parity...)
	}
	return c
}

// Add inserts one value.
func (s *Sketch) Add(x float64) {
	if len(s.levels) == 0 {
		s.levels = append(s.levels, make([]float64, 0, s.cap))
		s.parity = append(s.parity, false)
	}
	s.levels[0] = append(s.levels[0], x)
	s.count++
	if len(s.levels[0]) >= s.cap {
		s.compact(0)
	}
}

// compact halves level i by promoting every other element (in sorted
// order) to level i+1, cascading if that level overflows in turn.
func (s *Sketch) compact(i int) {
	buf := s.levels[i]
	sort.Float64s(buf)
	if i+1 >= len(s.levels) {
		s.levels = append(s.levels, make([]float64, 0, s.cap))
		s.parity = append(s.parity, false)
	}
	start := 0
	if s.parity[i] {
		start = 1
	}
	s.parity[i] = !s.parity[i]
	for j := start; j < len(buf); j += 2 {
		s.levels[i+1] = append(s.levels[i+1], buf[j])
	}
	s.levels[i] = buf[:0]
	if len(s.levels[i+1]) >= s.cap {
		s.compact(i + 1)
	}
}

// Merge folds other into s. Both sketches must share the same per-level
// capacity (true for all sketches built by this package with defaults).
// other is left unchanged.
func (s *Sketch) Merge(other *Sketch) {
	for i, lvl := range other.levels {
		for len(s.levels) <= i {
			s.levels = append(s.levels, make([]float64, 0, s.cap))
			s.parity = append(s.parity, false)
		}
		s.levels[i] = append(s.levels[i], lvl...)
	}
	s.count += other.count
	for i := 0; i < len(s.levels); i++ {
		if len(s.levels[i]) >= s.cap {
			s.compact(i)
		}
	}
}

// weighted is one summarized value with its multiplicity.
type weighted struct {
	v float64
	w uint64
}

// Quantile returns an estimate of the q-th quantile (0 ≤ q ≤ 1) of the
// added values, exact while fewer than the sketch capacity have been
// added. It returns 0 on an empty sketch. For several quantiles at once
// use Quantiles, which flattens and sorts the summary only once.
func (s *Sketch) Quantile(q float64) float64 {
	return s.Quantiles([]float64{q})[0]
}

// Quantiles answers all the given quantile queries from a single
// flatten-and-sort of the summary — the aggregator asks for 16 per
// update, so sharing the O(size · log size) pass matters at large
// replicate counts. Results are positional with qs; an empty sketch
// answers 0 everywhere.
func (s *Sketch) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if s.count == 0 {
		return out
	}
	all := make([]weighted, 0, s.cap*len(s.levels))
	for i, lvl := range s.levels {
		w := uint64(1) << uint(i)
		for _, v := range lvl {
			all = append(all, weighted{v, w})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v < all[b].v })
	var total uint64
	for _, e := range all {
		total += e.w
	}
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		// Rank target: q scaled over the summarized mass, clamped into
		// range so q=0 is the minimum and q=1 the maximum.
		target := uint64(q * float64(total))
		if target >= total {
			target = total - 1
		}
		var cum uint64
		out[i] = all[len(all)-1].v
		for _, e := range all {
			cum += e.w
			if cum > target {
				out[i] = e.v
				break
			}
		}
	}
	return out
}
