package pp

import "sort"

// ridxMembersMax caps the number of states the incremental reactive-pair
// index tracks. Membership is append-only between rebuilds (dead states
// keep their zero-weight adjacency so revival is pure arithmetic), so a
// run that churns through more distinct live states than this rebuilds
// the index — compacting membership to the currently live support — or,
// above the cap, falls back to one-shot enumeration per skip event. The
// cap bounds a rebuild at ridxMembersMax² memoized probes (~2.4M, a few
// milliseconds) and a per-event sampling walk at ridxMembersMax entries.
const ridxMembersMax = 1536

// reactiveIndex incrementally maintains the set of reactive (census-
// changing) ordered state pairs and their total scheduler weight
// wc = Σ cᵢ·(cⱼ−[i=j]), the quantity that sets the geometric no-op skip
// law. Where collectReactivePairs re-enumerates all live² ordered pairs
// per skip event, the index pays O(row+column of the changed state) per
// census change and O(1) per wc read.
//
// Layout: for every member state i, rows[i] holds the responders j with
// (i, j) reactive and cols[j] the initiators i ≠ j with (i, j) reactive,
// both sorted ascending. rowSum[i] = Σ_{j∈rows[i]} (cⱼ−[i=j]) and
// colSum[j] = Σ_{i∈cols[j]} cᵢ cache the marginal weights, so a count
// change at state s updates wc by removing s's row/column contribution at
// the old count, shifting the sums of every row and column s appears in
// by the delta, and re-adding at the new count.
//
// The index is purely a wall-clock accelerator: reactiveWeight and
// samplePair return bit-identical results whether they run on the index
// or on the from-scratch enumeration, so no policy decision ever observes
// the index's lifecycle (validity, rebuilds, metering). That is what lets
// Clone drop the index, replayFirstHit invalidate it wholesale, and the
// bit-determinism fixtures keep passing.
type reactiveIndex struct {
	valid   bool
	member  []bool  // member[s]: s is tracked (indexed by dense state index)
	members []int32 // tracked state indexes, ascending
	rows    [][]int32
	cols    [][]int32
	diag    []bool // diag[s]: (s, s) is reactive
	rowSum  []int64
	colSum  []int64
	wc      uint64

	// Round-mode maintenance metering: a reaction-dense round would pay
	// O(cells·row) keeping the index current, more than the rebuild it is
	// meant to avoid. Each round grants a budget of index operations;
	// exceeding it invalidates the index for the rest of the round. The
	// budget depends only on chain history, so invalidation is as
	// deterministic as every other policy input.
	metered bool
	budget  int64
}

func (r *reactiveIndex) invalidate() {
	r.valid = false
	r.metered = false
}

// ridxGrow extends the per-state arrays to cover states registered since
// the last growth (probing outcomes during maintenance can itself
// register new states).
func (c *CensusSimulator[S]) ridxGrow() {
	r := &c.ridx
	for len(r.member) < len(c.states) {
		r.member = append(r.member, false)
		r.rows = append(r.rows, nil)
		r.cols = append(r.cols, nil)
		r.diag = append(r.diag, false)
		r.rowSum = append(r.rowSum, 0)
		r.colSum = append(r.colSum, 0)
	}
}

// ridxRebuild constructs the index from scratch over every state the
// dense table has ever seen: Θ(states²) memoized transition probes, the
// same order as one collectReactivePairs call on a mostly-live table.
// Dead states are indexed too — their pairs carry zero weight, so they
// cost nothing per event, and a state flickering between count 0 and 1
// (a lone leader walking through timer states, a BackUp level draining
// and refilling) is pure arithmetic instead of a membership insertion.
// The caller guarantees len(states) ≤ ridxMembersMax.
func (c *CensusSimulator[S]) ridxRebuild() {
	r := &c.ridx
	for _, s := range r.members {
		r.member[s] = false
	}
	r.members = r.members[:0]
	r.wc = 0
	r.metered = false
	c.ridxGrow()
	for i := range c.states {
		r.members = append(r.members, int32(i))
		r.member[i] = true
	}
	for _, s := range r.members {
		r.rows[s] = r.rows[s][:0]
		r.cols[s] = r.cols[s][:0]
		r.diag[s] = false
		r.rowSum[s] = 0
		r.colSum[s] = 0
	}
	for _, i := range r.members {
		ci := c.counts[i]
		for _, j := range r.members {
			if i2, j2 := c.outcome(i, j); i2 == i && j2 == j {
				continue
			}
			r.rows[i] = append(r.rows[i], j)
			w := c.counts[j]
			if i == j {
				r.diag[i] = true
				w--
			} else {
				r.cols[j] = append(r.cols[j], i)
				r.colSum[j] += ci
			}
			r.rowSum[i] += w
		}
	}
	for _, i := range r.members {
		if c.counts[i] > 0 {
			r.wc += uint64(c.counts[i]) * uint64(r.rowSum[i])
		}
	}
	r.valid = true
}

// ridxMeter arms the per-round maintenance budget; ridxUnmeter disarms it
// at the round boundary. The grant covers a handful of row scans: enough
// for the sparse rounds the skipper cares about, nothing for
// reaction-dense rounds where the index would be rebuilt cheaper later.
func (c *CensusSimulator[S]) ridxMeter() {
	if !c.ridx.valid {
		return
	}
	c.ridx.metered = true
	c.ridx.budget = int64(16*c.live + 256)
}

func (c *CensusSimulator[S]) ridxUnmeter() { c.ridx.metered = false }

// ridxUpdate folds one count change (state index i, old → cnew) into the
// index. It runs before the census mutation, so counts[i] still reads
// old and all other counts are current. Cost: O(|rows[i]| + |cols[i]|).
func (c *CensusSimulator[S]) ridxUpdate(i int, old, cnew int64) {
	r := &c.ridx
	if i >= len(r.member) || !r.member[i] {
		// First agent ever to enter a state the index has not probed: by
		// the membership invariant (every state live at build time or
		// since is a member) old == 0 here.
		if !c.ridxAddMember(i) {
			return
		}
	}
	if r.metered {
		cost := int64(1 + len(r.rows[i]) + len(r.cols[i]))
		if r.budget < cost {
			r.invalidate()
			return
		}
		r.budget -= cost
	}
	// Remove i's contribution at the old count, shift the sums i appears
	// in, re-add at the new count. rowSum[i] ≥ 0 whenever counts[i] > 0
	// (the diagonal term cᵢ−1 can only dip to −1 at count zero, where the
	// product vanishes), so the uint64 conversions are exact.
	if old != 0 {
		r.wc -= uint64(old) * uint64(r.rowSum[i]+r.colSum[i])
	}
	d := cnew - old
	if r.diag[i] {
		r.rowSum[i] += d
	}
	for _, m := range r.cols[i] {
		r.rowSum[m] += d
	}
	for _, j := range r.rows[i] {
		if int(j) != i {
			r.colSum[j] += d
		}
	}
	if cnew != 0 {
		r.wc += uint64(cnew) * uint64(r.rowSum[i]+r.colSum[i])
	}
}

// ridxAddMember probes the new state against every member and splices it
// into the adjacency. Invoked only from ridxUpdate before the mutation,
// so counts[s] == 0: every pair involving s has zero weight, wc is
// untouched, and only the sums over *other* members' counts are built.
// Reports false after invalidating when membership hit the cap.
func (c *CensusSimulator[S]) ridxAddMember(s int) bool {
	r := &c.ridx
	if len(r.members) >= ridxMembersMax {
		r.invalidate()
		return false
	}
	if r.metered {
		cost := int64(2*len(r.members)) + 8
		if r.budget < cost {
			r.invalidate()
			return false
		}
		r.budget -= cost
	}
	c.ridxGrow()
	si := int32(s)
	r.members = insertSorted(r.members, si)
	r.member[s] = true
	r.rows[s] = r.rows[s][:0]
	r.cols[s] = r.cols[s][:0]
	r.diag[s] = false
	r.rowSum[s] = 0
	r.colSum[s] = 0
	for _, m := range r.members {
		if m == si {
			if i2, j2 := c.outcome(si, si); i2 != si || j2 != si {
				r.diag[s] = true
				r.rows[s] = insertSorted(r.rows[s], si)
				r.rowSum[s]-- // cₛ − 1 with cₛ = 0
			}
			continue
		}
		if i2, j2 := c.outcome(si, m); i2 != si || j2 != m {
			r.rows[s] = insertSorted(r.rows[s], m)
			r.rowSum[s] += c.counts[m]
			r.cols[m] = insertSorted(r.cols[m], si)
		}
		if i2, j2 := c.outcome(m, si); i2 != m || j2 != si {
			r.rows[m] = insertSorted(r.rows[m], si)
			r.cols[s] = insertSorted(r.cols[s], m)
			r.colSum[s] += c.counts[m]
		}
	}
	return true
}

// ridxSamplePair maps target ∈ [0, wc) to the reactive ordered pair at
// that offset of the cumulative weight layout: an outer walk over members
// in ascending state-index order subtracting whole-row weights, then an
// inner walk over the hit row's sorted responders. Pairs involving
// count-zero states contribute zero width, so the layout is positionally
// identical to collectReactivePairs' lexicographic enumeration over live
// states — the same target selects the same pair on either path.
func (c *CensusSimulator[S]) ridxSamplePair(target uint64) (int, int) {
	r := &c.ridx
	for _, i := range r.members {
		ci := c.counts[i]
		if ci == 0 {
			continue
		}
		if rw := uint64(ci) * uint64(r.rowSum[i]); target >= rw {
			target -= rw
			continue
		}
		for _, j := range r.rows[i] {
			w := c.counts[j]
			if j == i {
				w--
			}
			if w <= 0 {
				continue
			}
			pw := uint64(ci) * uint64(w)
			if target < pw {
				return int(i), int(j)
			}
			target -= pw
		}
		break
	}
	panic("pp: reactive-pair index sampling underflow")
}

// insertSorted splices v into the ascending slice s, preserving order.
// Steady-state maintenance never inserts (membership and adjacency are
// append-only between rebuilds), so the amortized append cost is paid
// only while new states are being discovered.
func insertSorted(s []int32, v int32) []int32 {
	pos := sort.Search(len(s), func(x int) bool { return s[x] >= v })
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

// reactiveWeight returns the census's total reactive scheduler weight wc.
// It prefers the incremental index (O(1) warm, one Θ(live²) rebuild cold)
// and falls back to from-scratch enumeration when the live support
// exceeds the membership cap. Both paths return the identical value and
// feed identical pair selection, so callers — in particular the hybrid
// mode controller — never observe which path ran: decisions remain
// deterministic functions of chain history even across Clone, which
// drops the index.
func (c *CensusSimulator[S]) reactiveWeight() uint64 {
	if c.ridx.valid {
		return c.ridx.wc
	}
	if len(c.states) <= ridxMembersMax {
		c.ridxRebuild()
		return c.ridx.wc
	}
	return c.collectReactivePairs()
}

// samplePair maps target ∈ [0, wc) — wc as returned by the immediately
// preceding reactiveWeight call on the same census — to its reactive
// ordered pair.
func (c *CensusSimulator[S]) samplePair(target uint64) (int, int) {
	if c.ridx.valid {
		return c.ridxSamplePair(target)
	}
	k := sort.Search(len(c.pairW), func(x int) bool { return c.pairW[x] > target })
	return int(c.pairI[k]), int(c.pairJ[k])
}

// skipBreakEven is the break-even length of one geometric skip event in
// scheduler steps: an event costs an O(live) index walk (selection plus
// maintenance) against a few nanoseconds per interaction on the round or
// per-interaction paths, so a skip pays once it jumps at least ~live/4
// interactions, floored by the census engine's exit threshold. Before the
// incremental index this was quadratic (live²/4, the enumeration cost) —
// the linear form is what makes skipping viable on wide censuses like
// PLL's ~900-state BackUp plateau.
func skipBreakEven(live int) uint64 {
	if thr := uint64(live) / 4; thr > countBatchExitSkip {
		return thr
	}
	return countBatchExitSkip
}

// skipEntryStreak is the sampled no-op streak that hands the census to
// the geometric skipper. Within the index's membership cap the standard
// streak suffices — the one-time rebuild amortizes over the skip phase.
// Beyond the cap every event re-enumerates Θ(live²) pairs, so entry
// demands evidence proportional to the live support; there is no hard
// cap, only a price.
func skipEntryStreak(live int) int {
	if live <= ridxMembersMax {
		return countNoopStreak
	}
	return live
}
