package pp

// Tuning constants of collision-free round mode. Like the census core's
// constants they affect only wall-clock cost, never the sampled
// distribution: every path realizes the exact uniform-scheduler Markov
// chain.
const (
	// batchRoundMinN is the smallest population for which collision-free
	// rounds are attempted by default. Below it a round covers only a
	// handful of interactions (E[round] ≈ 0.63·√n) and the per-interaction
	// path is cheaper.
	batchRoundMinN = 64
	// batchMinRound is the smallest remaining step budget worth opening a
	// round for; shorter advances use the per-interaction path.
	batchMinRound = 8
	// batchDenseStatesMax is the state-table size up to which the dense
	// transition-outcome matrix grows unconditionally (batchDenseStatesMax²
	// packed cells, 4 MiB). Beyond it the matrix keeps growing — and round
	// mode stays eligible — only while the live support remains narrow
	// enough for aggregate draws to amortize (maxLiveForRounds): protocols
	// whose *tables* grow without bound but whose censuses stay
	// concentrated (PLL's BackUp countdown walks ~220 fresh states per 100
	// units of parallel time while ≤ ~300 are ever live at once) keep the
	// 3–4× round-mode advantage for the whole run, while state-hungry
	// protocols with wide censuses (MaxID) are declined before the matrix
	// bloats. batchDenseStatesHardMax caps the matrix unconditionally
	// (batchDenseStatesHardMax² cells, 64 MiB) and with it round mode.
	batchDenseStatesMax     = 1024
	batchDenseStatesHardMax = 4096
	// batchAutoLiveMin/Max clamp the automatic live-state cap for round
	// mode, derived from the expected round length (see maxLiveForRounds).
	batchAutoLiveMin = 32
	batchAutoLiveMax = 512
	// batchNoopRoundStreak is the number of consecutive all-no-op rounds
	// after which the engine hands the census to the geometric no-op
	// skipper: a round of Θ(√n) no-ops is evidence the census is inert and
	// the exact geometric law can jump whole Θ(n²) stretches at once.
	batchNoopRoundStreak = 2
	// batchResidualCutoff is the remaining-sample floor below which the
	// multivariate draws switch from per-state hypergeometric conditionals
	// to placing the remaining samples one agent at a time (the equivalent
	// sequential revelation of the same without-replacement law). The
	// switch also triggers once the remaining sample is small relative to
	// the remaining states (batchResidualPerState expected samples per
	// state), so a long flat census tail costs O(samples) draws instead of
	// O(states) hypergeometric setups.
	batchResidualCutoff   = 24
	batchResidualPerState = 2
	// batchSurvivalFloor is where the precomputed birthday survival table
	// stops: the smallest uniform draw is 2⁻⁵³ ≈ 1.1e-16, so tabulating
	// P[first t interactions collision-free] down to 1e-18 covers every
	// reachable round length.
	batchSurvivalFloor = 1e-18
)

// roundCell is one aggregated interaction cell of a round: m interactions
// of the ordered state pair (p, q).
type roundCell struct {
	p, q int32
	m    int64
}

// roundScratch is the per-round scratch of round mode. It carries no chain
// state between rounds (see derived).
type roundScratch struct {
	// Per-state scratch, indexed by dense state index and reset sparsely
	// after each round via the index lists.
	part       []int64 // participants drawn per state (the multiset D)
	ini        []int64 // initiator-slot split of part
	rcnt       []int64 // responder pool remaining during matching
	post       []int64 // post-transition state multiset of participants
	sampledIdx []int32 // states with part > 0, in draw order
	postIdx    []int32 // states with post > 0
	poolIdx    []int32 // matching's compacted responder pool
	cumW       []int64 // residual sampling: suffix prefix sums
	bucketIdx  []int32 // residual sampling: 256-bucket jump table into cumW
	residShift uint    // residual sampling: bucket width log2

	// The round's interaction cells (ordered state pair → multiplicity),
	// kept for the exact first-hit replay, plus the colliding pair.
	cells        []roundCell
	collP, collQ int32

	// Census snapshot for first-hit replay when a round could cross the
	// caller's leader target.
	snapCounts  []int64
	snapLeaders int
	snapLive    int
	snapRole    uint64

	replayBuf []uint64
}

// TuneRounds overrides the adaptive round policy: populations of at least
// minN agents use collision-free rounds while at most maxLive distinct
// states are occupied. Zero restores the default for either value. Any
// setting is distribution-preserving — the policy trades only wall-clock
// time — which is why the knob is safe to expose for tests and benchmarks.
func (c *CensusSimulator[S]) TuneRounds(minN, maxLive int) {
	c.minRoundN = minN
	if minN <= 0 {
		c.minRoundN = batchRoundMinN
	}
	c.maxLive = maxLive
}

// maxLiveForRounds is the live-state cap above which aggregate draws stop
// amortizing: about half the expected round length, so a typical round
// still draws several interactions per occupied state.
func (c *CensusSimulator[S]) maxLiveForRounds() int {
	if c.maxLive > 0 {
		return c.maxLive
	}
	m := int(c.expRound / 2)
	if m < batchAutoLiveMin {
		return batchAutoLiveMin
	}
	if m > batchAutoLiveMax {
		return batchAutoLiveMax
	}
	return m
}

// --- Birthday round length ----------------------------------------------

// ensureSurvival builds the survival table of the birthday law:
// survival[t] = P[the first t interactions are collision-free] =
// ∏_{s=1..t} (n−2s+2)(n−2s+1) / (n(n−1)), tabulated until it falls below
// batchSurvivalFloor (or every agent is used).
func (c *CensusSimulator[S]) ensureSurvival() {
	if c.survival != nil {
		return
	}
	n := c.n
	nn := float64(n) * float64(n-1)
	surv := make([]float64, 1, int(5*c.expRound)+2)
	surv[0] = 1
	p := 1.0
	for t := 1; 2*t <= n; t++ {
		nu := float64(n - 2*(t-1))
		p *= nu * (nu - 1) / nn
		if p < batchSurvivalFloor {
			break
		}
		surv = append(surv, p)
	}
	c.survival = surv
}

// sampleRoundLength draws the number of collision-free interactions to
// process, capped by the remaining step budget. collided reports whether
// the round ends in a colliding interaction (false only at the cap, where
// the rest of the block is deferred: the first `remaining` interactions of
// a collision-free block are themselves an exact chain segment).
func (c *CensusSimulator[S]) sampleRoundLength(remaining uint64) (f uint64, collided bool) {
	c.ensureSurvival()
	surv := c.survival
	u := 1 - c.rand.Float64() // in (0, 1], so T is finite
	// T = largest t with surv[t] >= u (binary search for the first smaller
	// entry). u below the table floor cannot occur: the floor is under the
	// smallest representable uniform except when the table ends at the
	// all-agents-used boundary, where T = n/2 is the correct answer.
	lo, hi := 1, len(surv)
	for lo < hi {
		mid := (lo + hi) / 2
		if surv[mid] < u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t := uint64(lo - 1)
	if t >= remaining {
		return remaining, false
	}
	return t, true
}

// --- The round -----------------------------------------------------------

// round processes one collision-free round (plus its colliding
// interaction, unless the step budget truncates the block first). Instead
// of sampling one interacting state pair at a time it simulates the
// uniform scheduler in a batch:
//
//  1. Draw the round length T — the number of leading interactions in which
//     no agent participates twice — from the exact birthday law over agent
//     slots: P[first t interactions collision-free] = n⁽²ᵗ⁾/(n(n−1))ᵗ,
//     precomputed as a survival table and sampled by inverse CDF.
//  2. The 2T slots of a collision-free block hold a uniformly random
//     ordered sample of agents without replacement, so the participants'
//     state counts follow the multivariate hypergeometric law of the
//     census; the split into initiator and responder slots is a second
//     hypergeometric split, and the pairing of initiator states with
//     responder states a third family of conditional hypergeometric draws
//     (a uniformly random matching of the two multisets).
//  3. Because each participant interacts exactly once in the block,
//     transitions cannot interfere: each ordered state pair (p, q) drawn m
//     times is applied in aggregate — census moved by counts, leader and
//     role-change accounting scaled by m — in O(1) per pair instead of
//     O(m).
//  4. The single colliding interaction that ends the round is resolved
//     exactly: conditioned on the collision, the repeated agent is uniform
//     over the 2T updated participants (whose post-transition states the
//     round tracked) or the fresh agents, with the closed-form probability
//     (n−1)/(2n−u−1) of colliding on the initiator slot.
//
// Per-interaction cost is therefore sub-constant wherever the census is
// concentrated: a round covers Θ(√n) interactions with O(states in sample)
// draws. lastRoundReactive counts the round's census-changing
// interactions.
func (c *CensusSimulator[S]) round(limit uint64, target int) {
	roundStart := c.steps
	f, collided := c.sampleRoundLength(limit - roundStart)
	slots := 2 * f

	// Keep the reactive-pair index warm through sparse rounds, but only
	// within a bounded maintenance budget: a reaction-dense round drops
	// the index instead of paying per-cell row scans (see ridxMeter).
	c.ridxMeter()

	// Snapshot for exact first-hit replay if this round could cross the
	// caller's leader target.
	snapped := target >= 0 && c.leaders > target
	if snapped {
		c.snapshot()
	}

	c.refreshOrder()
	c.sampleParticipants(slots)
	c.splitInitiators(f, slots)
	c.matchAndApply(f)
	if collided {
		c.collide(f)
	}
	if collided {
		c.steps = roundStart + f + 1
	} else {
		c.steps = roundStart + f
	}

	if snapped && c.leaders <= target {
		c.replayFirstHit(target, roundStart, collided)
	}

	c.ridxUnmeter()
	c.resetRound()
}

// refreshOrder maintains c.order, all state indexes sorted by count
// descending. The census drifts slowly between rounds, so an insertion
// pass over the previous order is nearly linear.
func (c *CensusSimulator[S]) refreshOrder() {
	for len(c.order) < len(c.states) {
		c.order = append(c.order, int32(len(c.order)))
	}
	counts := c.counts
	order := c.order
	for i := 1; i < len(order); i++ {
		v := order[i]
		cnt := counts[v]
		j := i
		for j > 0 && counts[order[j-1]] < cnt {
			order[j] = order[j-1]
			j--
		}
		order[j] = v
	}
}

// sampleParticipants draws the participants' state multiset D: a
// multivariate hypergeometric sample of `slots` agents from the census,
// materialized by conditional hypergeometric draws in descending count
// order (so the loop exits as soon as the sample is exhausted).
func (c *CensusSimulator[S]) sampleParticipants(slots uint64) {
	c.growScratch()
	c.sampledIdx = c.sampledIdx[:0]
	mrem := slots
	wrem := uint64(c.n)
	visitedLive := 0
	oi := 0
	for ; oi < len(c.order); oi++ {
		if mrem <= batchResidualCutoff ||
			mrem <= uint64(batchResidualPerState*(c.live-visitedLive)) {
			break
		}
		si := c.order[oi]
		cnt := uint64(c.counts[si])
		if cnt == 0 {
			continue
		}
		visitedLive++
		var d uint64
		if cnt == wrem {
			d = mrem // only this state remains in the population
		} else {
			d = c.rand.Hypergeometric(mrem, cnt, wrem)
		}
		wrem -= cnt
		if d > 0 {
			c.part[si] = int64(d)
			c.sampledIdx = append(c.sampledIdx, si)
			mrem -= d
		}
	}
	if mrem == 0 {
		return
	}
	// Residual: place the last samples agent by agent over the remaining
	// (descending-count) suffix — binary search on its prefix sums, with
	// the taken-slot trick for without-replacement exactness (a slot
	// offset below the already-placed count means that agent was drawn
	// before; redraws are ~never needed since placed ≪ suffix mass).
	suffix := c.order[oi:]
	w := c.buildResidualIndex(suffix, func(si int32) int64 { return c.counts[si] })
	for ; mrem > 0; mrem-- {
		for {
			si, slot := c.residualDraw(suffix, uint64(w))
			if slot < c.part[si] {
				continue // slot already taken: redraw
			}
			c.part[si]++
			break
		}
	}
	// Rebuild the sampled list in census order: residual placement visits
	// states in draw order, but the split and matching stages lean on a
	// descending-count order for their early exits and short walks.
	c.sampledIdx = c.sampledIdx[:0]
	for _, si := range c.order {
		if c.part[si] > 0 {
			c.sampledIdx = append(c.sampledIdx, si)
		}
	}
}

// buildResidualIndex fills cumW with prefix sums of the suffix weights and
// a 256-bucket jump table over the value range, so each residual draw
// starts its scan at most a bucket's width from its target.
func (c *CensusSimulator[S]) buildResidualIndex(suffix []int32, weight func(int32) int64) int64 {
	cum := c.cumW[:0]
	var w int64
	for _, si := range suffix {
		w += weight(si)
		cum = append(cum, w)
	}
	c.cumW = cum
	shift := uint(0)
	for w>>shift >= 256 {
		shift++
	}
	c.residShift = shift
	if cap(c.bucketIdx) < 257 {
		c.bucketIdx = make([]int32, 257)
	}
	idx := c.bucketIdx[:257]
	j := int32(0)
	for bkt := 0; bkt < 256; bkt++ {
		lo := int64(bkt) << shift
		for int(j) < len(cum) && cum[j] <= lo {
			j++
		}
		idx[bkt] = j
	}
	idx[256] = int32(len(cum))
	return w
}

// residualDraw maps one uniform agent draw over [0, w) to its state and
// within-state slot via the jump table.
func (c *CensusSimulator[S]) residualDraw(suffix []int32, w uint64) (int32, int64) {
	t := int64(c.rand.Uint64n(w))
	cum := c.cumW
	j := int(c.bucketIdx[t>>c.residShift])
	for cum[j] <= t {
		j++
	}
	var before int64
	if j > 0 {
		before = cum[j-1]
	}
	return suffix[j], t - before
}

// splitInitiators splits the participant multiset into initiator and
// responder slots: a hypergeometric split of f of the `slots` sampled
// agents into initiator positions.
func (c *CensusSimulator[S]) splitInitiators(f, slots uint64) {
	frem := f
	drem := slots
	oi := 0
	for ; oi < len(c.sampledIdx); oi++ {
		if frem < drem &&
			(frem <= batchResidualCutoff ||
				frem <= uint64(batchResidualPerState*(len(c.sampledIdx)-oi))) {
			break
		}
		si := c.sampledIdx[oi]
		ds := uint64(c.part[si])
		var is uint64
		switch {
		case frem == 0:
		case ds == drem:
			is = frem
		default:
			is = c.rand.Hypergeometric(frem, ds, drem)
		}
		c.ini[si] = int64(is)
		c.rcnt[si] = int64(ds - is)
		frem -= is
		drem -= ds
	}
	if oi == len(c.sampledIdx) {
		return
	}
	// Residual: the remaining states start all-responder, then the last
	// initiator slots are assigned one at a time over the suffix — binary
	// search on its participant prefix sums, taken-slot redraws for
	// without-replacement exactness (an offset below the already-assigned
	// count means that slot is an initiator already).
	suffix := c.sampledIdx[oi:]
	for _, si := range suffix {
		c.ini[si] = 0
		c.rcnt[si] = c.part[si]
	}
	w := c.buildResidualIndex(suffix, func(si int32) int64 { return c.part[si] })
	if frem > uint64(w)/2 {
		// Assign the minority side so taken-slot redraws stay rare: mark
		// responders instead and flip.
		for rrem := uint64(w) - frem; rrem > 0; rrem-- {
			for {
				si, slot := c.residualDraw(suffix, uint64(w))
				if slot < c.part[si]-c.rcnt[si] {
					continue // slot already marked responder: redraw
				}
				c.rcnt[si]--
				break
			}
		}
		for _, si := range suffix {
			marked := c.part[si] - c.rcnt[si] // responders marked above
			c.ini[si] = c.rcnt[si]            // the rest are initiators
			c.rcnt[si] = marked
		}
		return
	}
	for ; frem > 0; frem-- {
		for {
			si, slot := c.residualDraw(suffix, uint64(w))
			if slot < c.ini[si] {
				continue // slot already an initiator: redraw
			}
			c.ini[si]++
			c.rcnt[si]--
			break
		}
	}
}

// matchAndApply pairs initiator states with responder states — a uniformly
// random matching of the two multisets, drawn by conditional
// hypergeometrics — and applies each resulting ordered state pair in
// aggregate. The responder pool is kept as a compacted list (exhausted
// states swap-removed) in descending-count order, so the per-initiator
// sweep touches only live pool entries and usually exits after the heavy
// head.
func (c *CensusSimulator[S]) matchAndApply(f uint64) {
	c.lastRoundReactive = 0
	pool := c.poolIdx[:0]
	for _, q := range c.sampledIdx {
		if c.rcnt[q] > 0 {
			pool = append(pool, q)
		}
	}
	poolRem := f
	for _, p := range c.sampledIdx {
		ip := uint64(c.ini[p])
		if ip == 0 {
			continue
		}
		prem := poolRem
		poolRem -= ip
		if ip <= batchResidualCutoff && len(pool) > 1 {
			// Small initiator group: draw each partner with a categorical
			// walk over the pool (the sequential revelation of the same
			// matching law) instead of sweeping every pool state.
			for ; ip > 0; ip-- {
				t := int64(c.rand.Uint64n(prem))
				prem--
				for qi := 0; qi < len(pool); qi++ {
					q := pool[qi]
					rq := c.rcnt[q]
					if t < rq {
						c.rcnt[q] = rq - 1
						c.applyCell(p, q, 1)
						if rq == 1 {
							pool[qi] = pool[len(pool)-1]
							pool = pool[:len(pool)-1]
						}
						break
					}
					t -= rq
				}
			}
			continue
		}
		for qi := 0; qi < len(pool) && ip > 0; {
			q := pool[qi]
			rq := uint64(c.rcnt[q])
			var m uint64
			if rq == prem {
				m = ip
			} else {
				m = c.rand.Hypergeometric(ip, rq, prem)
			}
			prem -= rq
			if m > 0 {
				rq -= m
				c.rcnt[q] = int64(rq)
				ip -= m
				c.applyCell(p, q, int64(m))
			}
			if rq == 0 {
				// Swap-remove the exhausted state; the order of the
				// remaining pool is still a deterministic function of the
				// draw history, which is all exactness needs.
				pool[qi] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				continue
			}
			qi++
		}
	}
	c.poolIdx = pool[:0]
}

// applyCell records and applies m interactions of the ordered state pair
// (p, q) in aggregate.
func (c *CensusSimulator[S]) applyCell(p, q int32, m int64) {
	i2, j2 := c.outcome(p, q)
	c.cells = append(c.cells, roundCell{p, q, m})
	c.notePost(i2, m)
	c.notePost(j2, m)
	if i2 != p || j2 != q {
		c.lastRoundReactive += uint64(m)
		c.moveMany(p, i2, m)
		c.moveMany(q, j2, m)
	}
}

// notePost accumulates the post-transition state multiset of the round's
// participants (the collision resolver samples the repeated agent's
// current state from it).
func (c *CensusSimulator[S]) notePost(s int32, m int64) {
	if int(s) >= len(c.post) {
		c.post = append(c.post, make([]int64, int(s)+1-len(c.post))...)
	}
	if c.post[s] == 0 {
		c.postIdx = append(c.postIdx, s)
	}
	c.post[s] += m
}

// moveMany relocates m agents from state index `from` to `to`, scaling the
// census, leader and role accounting that moveOne does per agent, but
// deferring Fenwick maintenance (see ensureFen).
func (c *CensusSimulator[S]) moveMany(from, to int32, m int64) {
	if from == to {
		return
	}
	c.bump(from, -m)
	c.bump(to, m)
	c.fenDirty = true
	if c.isLeader[from] != c.isLeader[to] {
		c.roleChanges += uint64(m)
	}
}

// collide resolves the colliding interaction that ends a round of f
// collision-free interactions, exactly: with probability (n−1)/(2n−u−1)
// the collision is on the initiator slot (the initiator is one of the u =
// 2f used agents, in its post-transition state; the responder is uniform
// over the other n−1 agents), otherwise on the responder slot (fresh
// initiator, used responder).
func (c *CensusSimulator[S]) collide(f uint64) {
	n := uint64(c.n)
	u := 2 * f
	pInit := float64(n-1) / float64(2*n-u-1)
	var ai, bi int32
	if c.rand.Float64() < pInit {
		ai = c.samplePost(u)
		bi = c.sampleCensusExcluding(ai)
	} else {
		ai = c.sampleUnused(n - u)
		bi = c.samplePost(u)
	}
	c.collP, c.collQ = ai, bi
	c.applyOne(ai, bi)
}

// samplePost draws a state from the participants' post-transition multiset
// (total weight u), i.e. the current state of a uniformly random used
// agent.
func (c *CensusSimulator[S]) samplePost(u uint64) int32 {
	t := int64(c.rand.Uint64n(u))
	for _, s := range c.postIdx {
		if t < c.post[s] {
			return s
		}
		t -= c.post[s]
	}
	panic("pp: post multiset underflow")
}

// sampleCensusExcluding draws a state from the current census with one
// instance of state `excl` removed — the uniform law of the second agent
// of an interaction given the first.
func (c *CensusSimulator[S]) sampleCensusExcluding(excl int32) int32 {
	t := int64(c.rand.Uint64n(uint64(c.n - 1)))
	for i, cnt := range c.counts {
		if int32(i) == excl {
			cnt--
		}
		if t < cnt {
			return int32(i)
		}
		t -= cnt
	}
	panic("pp: census underflow")
}

// sampleUnused draws a state from the multiset of agents that did not
// participate in the round (current census minus the post multiset).
func (c *CensusSimulator[S]) sampleUnused(total uint64) int32 {
	t := int64(c.rand.Uint64n(total))
	for i, cnt := range c.counts {
		if i < len(c.post) {
			cnt -= c.post[i]
		}
		if t < cnt {
			return int32(i)
		}
		t -= cnt
	}
	panic("pp: unused multiset underflow")
}

// applyOne applies a single interaction of the ordered state pair (i, j)
// through the round bookkeeping (no Fenwick maintenance).
func (c *CensusSimulator[S]) applyOne(i, j int32) {
	i2, j2 := c.outcome(i, j)
	if i2 != i || j2 != j {
		c.lastRoundReactive++
		c.moveMany(i, i2, 1)
		c.moveMany(j, j2, 1)
	}
}

// replayFirstHit rolls the census back to the start of the round and
// replays its interactions one at a time, in a uniformly random order, to
// stop the chain at the exact step where the leader count first reached
// the target. The slots of a collision-free block are exchangeable, so a
// uniform shuffle of its interaction multiset is the correct conditional
// order; the colliding interaction is by construction the round's last.
func (c *CensusSimulator[S]) replayFirstHit(target int, roundStart uint64, collided bool) {
	// Roll back. The wholesale count restore bypasses the bump hook, so
	// the reactive-pair index cannot follow it; drop it for rebuild.
	c.ridx.invalidate()
	copy(c.counts, c.snapCounts)
	for i := len(c.snapCounts); i < len(c.counts); i++ {
		c.counts[i] = 0
	}
	c.leaders = c.snapLeaders
	c.live = c.snapLive
	c.roleChanges = c.snapRole
	c.fenDirty = true

	// Expand the round's cells into single interactions.
	buf := c.replayBuf[:0]
	for _, cell := range c.cells {
		pq := uint64(uint32(cell.p))<<32 | uint64(uint32(cell.q))
		for k := int64(0); k < cell.m; k++ {
			buf = append(buf, pq)
		}
	}
	c.replayBuf = buf

	steps := roundStart
	for t := range buf {
		// Lazy Fisher–Yates: fix position t, then apply it.
		j := t + int(c.rand.Uint64n(uint64(len(buf)-t)))
		buf[t], buf[j] = buf[j], buf[t]
		c.applyOne(int32(buf[t]>>32), int32(uint32(buf[t])))
		steps++
		if c.leaders <= target {
			c.steps = steps
			return
		}
	}
	if collided {
		// The free block alone did not reach the target, so the colliding
		// interaction (the round's last) did.
		c.applyOne(c.collP, c.collQ)
		steps++
	}
	c.steps = steps
}

// snapshot saves the census and its derived counters for replayFirstHit.
func (c *CensusSimulator[S]) snapshot() {
	if cap(c.snapCounts) < len(c.counts) {
		// Grow with headroom: snapshot runs once per crossing-eligible
		// round, so an exact-length buffer would reallocate after every
		// newly discovered state.
		c.snapCounts = make([]int64, len(c.counts), 2*len(c.counts))
	}
	c.snapCounts = c.snapCounts[:len(c.counts)]
	copy(c.snapCounts, c.counts)
	c.snapLeaders = c.leaders
	c.snapLive = c.live
	c.snapRole = c.roleChanges
}

// resetRound sparsely clears the per-round scratch.
func (c *CensusSimulator[S]) resetRound() {
	for _, si := range c.sampledIdx {
		c.part[si] = 0
		c.ini[si] = 0
		c.rcnt[si] = 0
	}
	for _, si := range c.postIdx {
		c.post[si] = 0
	}
	c.sampledIdx = c.sampledIdx[:0]
	c.postIdx = c.postIdx[:0]
	c.cells = c.cells[:0]
	c.collP, c.collQ = -1, -1
}

// growScratch sizes the per-state scratch to the state table.
func (c *CensusSimulator[S]) growScratch() {
	k := len(c.states)
	for _, s := range []*[]int64{&c.part, &c.ini, &c.rcnt, &c.post} {
		if len(*s) < k {
			*s = append(*s, make([]int64, k-len(*s))...)
		}
	}
}
