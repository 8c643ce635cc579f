package ensemble

// Replicate is the outcome of one independent run of an ensemble. It is
// the per-run record streamed into the online aggregators; everything in
// it is part of the deterministic surface (no wall-clock times).
type Replicate struct {
	// Rep is the 0-based replicate index.
	Rep int `json:"rep"`
	// Seed is the scheduler seed the replicate ran with
	// (ReplicateSeed(base, Rep)).
	Seed uint64 `json:"seed"`
	// Steps is the interaction count at which the run ended; when
	// Stabilized it is the exact stabilization step.
	Steps uint64 `json:"steps"`
	// ParallelTime is Steps divided by the population size.
	ParallelTime float64 `json:"parallelTime"`
	// Stabilized reports whether the run reached the protocol's target
	// leader count within its step budget.
	Stabilized bool `json:"stabilized"`
	// Leaders is the leader count when the run ended.
	Leaders int `json:"leaders"`
}

// SurvivalPoint is one point of the empirical survival curve: the
// fraction of replicates whose parallel stabilization time exceeds T.
type SurvivalPoint struct {
	T    float64 `json:"t"`
	Frac float64 `json:"frac"`
}

// Aggregates is the streaming statistical summary of an ensemble: what
// the service stores, the SSE stream carries, and the paper-table
// harness reports. Every field is a deterministic function of the
// incorporated replicates (in replicate order), so identical specs
// produce bit-identical aggregates regardless of worker count.
type Aggregates struct {
	// Replicates is the number of replicates incorporated so far;
	// Requested is the ensemble size asked for. They differ while the
	// ensemble streams and when early stopping triggered.
	Replicates int `json:"replicates"`
	Requested  int `json:"requested"`
	// Stabilized counts incorporated replicates that reached the target,
	// with a Wilson-score 95% interval on the underlying probability.
	Stabilized   int     `json:"stabilized"`
	StabilizedLo float64 `json:"stabilizedCILo"`
	StabilizedHi float64 `json:"stabilizedCIHi"`
	// Parallel stabilization time statistics over the incorporated
	// replicates (Welford mean/variance; CI95 is the normal-approximation
	// 95% confidence interval on the mean).
	MeanParallelTime float64 `json:"meanParallelTime"`
	StdParallelTime  float64 `json:"stdParallelTime"`
	CILo             float64 `json:"ci95Lo"`
	CIHi             float64 `json:"ci95Hi"`
	// RelHalfWidth is the CI half-width divided by the mean — the early
	// stopping criterion (see Spec.CITarget).
	RelHalfWidth    float64 `json:"relHalfWidth"`
	MinParallelTime float64 `json:"minParallelTime"`
	MaxParallelTime float64 `json:"maxParallelTime"`
	// Quantiles of parallel stabilization time from the mergeable sketch
	// (exact below the sketch capacity of 256 replicates).
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// MeanSteps is the mean interaction count.
	MeanSteps float64 `json:"meanSteps"`
	// Survival is the empirical survival curve of parallel time: the
	// fraction of runs still unstabilized at time T, on a quantile grid.
	Survival []SurvivalPoint `json:"survival,omitempty"`
	// EarlyStopped reports that the CI target was met and the remaining
	// replicates were skipped.
	EarlyStopped bool `json:"earlyStopped,omitempty"`
}

// survivalGrid is the quantile grid the survival curve is rendered on.
var survivalGrid = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// aggregator accumulates replicates online, in replicate order, through
// the canonical range partition: replicates stream into the current
// range's Partial, and each completed range is folded (ascending) into
// the running prefix. Because this is the exact fold the cluster
// coordinator performs on worker-computed partials, a local ensemble
// and a distributed one produce bit-identical aggregates.
type aggregator struct {
	requested int
	rangeSize int
	folded    *Partial // left fold of all completed ranges (nil before the first)
	cur       *Partial // the open range (nil once every range has folded)
	early     bool
}

func newAggregator(requested int) *aggregator {
	size := PlanRangeSize(requested)
	return &aggregator{
		requested: requested,
		rangeSize: size,
		cur:       NewPartial(0, min(size, requested)),
	}
}

// add incorporates one replicate and reports whether it completed a
// range (the only points where early stopping may be decided — a
// mid-range decision could not be reproduced by a coordinator that only
// sees whole ranges). Callers must add in replicate order for the
// bit-identical determinism guarantee.
func (a *aggregator) add(r Replicate) (rangeClosed bool) {
	a.cur.Add(r)
	if a.cur.Count < a.cur.Hi-a.cur.Lo {
		return false
	}
	if a.folded == nil {
		a.folded = a.cur
	} else if err := a.folded.Merge(a.cur); err != nil {
		// Ranges are planned adjacent; a failure here is a bug.
		panic(err)
	}
	if lo := a.folded.Hi; lo < a.requested {
		a.cur = NewPartial(lo, min(lo+a.rangeSize, a.requested))
	} else {
		a.cur = nil
	}
	return true
}

// count returns the number of replicates incorporated so far.
func (a *aggregator) count() int {
	n := 0
	if a.folded != nil {
		n += a.folded.Count
	}
	if a.cur != nil {
		n += a.cur.Count
	}
	return n
}

// aggregates renders the current state as an Aggregates snapshot,
// merging the open range into a copy of the folded prefix when needed
// so streaming snapshots see every incorporated replicate.
func (a *aggregator) aggregates() Aggregates {
	switch {
	case a.folded == nil && a.cur == nil:
		return Aggregates{Requested: a.requested, EarlyStopped: a.early}
	case a.folded == nil:
		return a.cur.Aggregates(a.requested, a.early)
	case a.cur == nil || a.cur.Count == 0:
		return a.folded.Aggregates(a.requested, a.early)
	default:
		snap := a.folded.Clone()
		if err := snap.Merge(a.cur); err != nil {
			panic(err)
		}
		return snap.Aggregates(a.requested, a.early)
	}
}
