package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"popproto/internal/ensemble"
)

// ErrUnknownLease is returned by Complete for a lease id the
// coordinator has no record of (never granted, or its run is gone).
var ErrUnknownLease = errors.New("cluster: unknown lease")

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a granted lease stays valid without a
	// heartbeat before its range is reclaimed and reissued (0 = 15s).
	// It is also the liveness window for workers: a worker counts as
	// live while its last contact is within one TTL.
	LeaseTTL time.Duration
	// Tick is the cadence at which a waiting run scans for expired
	// leases (0 = 250ms).
	Tick time.Duration
	// MaxRetries bounds how often one range may be reissued after lease
	// expiry before the run fails (0 = 8).
	MaxRetries int
	// Logf, when set, receives scheduling events (expiries, retries).
	Logf func(format string, args ...any)
}

// LocalRunner executes a contiguous block of canonical ranges in
// process, delivering each completed range's partial to onRange in
// range order; onRange returning true stops the block. The service
// plugs ensemble.RunRanges (with its worker pool) in here — the
// coordinator itself stays free of simulation concerns.
type LocalRunner func(ctx context.Context, spec ensemble.Spec, ranges []ensemble.Range, onRange func(*ensemble.Partial) (stop bool)) error

// Range states.
const (
	rangePending = iota // waiting for a lease or local claim
	rangeLeased         // granted (remote lease or local claim), result outstanding
	rangeDone           // partial received
	rangeSkipped        // cut off by early stopping
)

// rangeState is the coordinator's scheduling record for one canonical
// range of a run.
type rangeState struct {
	rng     ensemble.Range
	state   int
	local   bool   // claimed by the coordinator's own LocalRunner
	leaseID string // current remote lease, "" when none or local
	partial *ensemble.Partial
	retries int
}

// lease is the server side of one granted Lease. Leases are kept until
// their run unregisters — a completion arriving after expiry (or after
// the range was reissued) must still resolve deterministically.
type lease struct {
	id      string
	runID   string
	rng     ensemble.Range
	worker  string
	expires time.Time
}

// run is one ensemble being distributed.
type run struct {
	id       string
	spec     ensemble.Spec
	wire     WireSpec
	ranges   []*rangeState
	nextFold int               // fold frontier: first range not yet merged
	folded   *ensemble.Partial // left fold of ranges [0, nextFold)
	onUpdate func(ensemble.Aggregates)
	early    bool
	err      error
	finished bool
	done     chan struct{}

	retries       int
	localRanges   int
	remoteRanges  int
	remoteWorkers map[string]struct{}
}

// Coordinator schedules replicate-range leases across workers and
// merges their partial aggregates. One coordinator serves many
// concurrent runs; it owns no goroutines — expiry reaping happens on
// the code paths that observe time passing (lease requests, run ticks).
type Coordinator struct {
	opts    Options
	metrics *clusterMetrics

	mu          sync.Mutex
	closed      bool
	seq         int
	runs        map[string]*run
	runOrder    []string
	leases      map[string]*lease
	workersSeen map[string]time.Time
}

// NewCoordinator returns a coordinator with opts' zero values resolved.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.Tick <= 0 {
		opts.Tick = 250 * time.Millisecond
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 8
	}
	c := &Coordinator{
		opts:        opts,
		runs:        make(map[string]*run),
		leases:      make(map[string]*lease),
		workersSeen: make(map[string]time.Time),
	}
	c.metrics = newClusterMetrics(c)
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Close fails every active run and refuses further work.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, r := range c.runs {
		c.finishLocked(r, fmt.Errorf("cluster: coordinator closed"))
	}
}

// LiveWorkers returns the number of workers heard from within one lease
// TTL. Zero is the signal for a run to execute its ranges locally.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	live := 0
	for id, seen := range c.workersSeen {
		if now.Sub(seen) <= c.opts.LeaseTTL {
			live++
		} else {
			delete(c.workersSeen, id)
		}
	}
	return live
}

// Run distributes one canonical ensemble: ranges leased to remote
// workers when any are live, executed through local otherwise (the
// coordinator falls back to local execution whenever the worker pool
// drains, so a run always completes). onUpdate, when set, observes the
// folded aggregates after each merged range; it is called with the
// coordinator lock held and must not call back into the coordinator.
// On cancellation Run returns the folded prefix with ctx's error.
func (c *Coordinator) Run(ctx context.Context, spec ensemble.Spec, local LocalRunner, onUpdate func(ensemble.Aggregates)) (ensemble.Aggregates, Distribution, error) {
	spec, _, err := ensemble.Canonicalize(spec)
	if err != nil {
		return ensemble.Aggregates{}, Distribution{}, err
	}
	r, err := c.register(spec, onUpdate)
	if err != nil {
		return ensemble.Aggregates{}, Distribution{}, err
	}
	defer c.unregister(r.id)

	tick := time.NewTicker(c.opts.Tick)
	defer tick.Stop()
	for {
		if block := c.claimLocal(r); len(block) > 0 {
			err := local(ctx, spec, block, func(p *ensemble.Partial) bool {
				return c.completeLocal(r, p)
			})
			if err != nil {
				c.failLocal(r, block, err)
			}
			continue
		}
		select {
		case <-r.done:
			return c.finishResult(r)
		case <-ctx.Done():
			c.mu.Lock()
			c.finishLocked(r, ctx.Err())
			c.mu.Unlock()
			return c.finishResult(r)
		case now := <-tick.C:
			c.mu.Lock()
			c.reapLocked(now)
			c.mu.Unlock()
		}
	}
}

// register plans a run's canonical partition and enters it into the
// scheduling tables.
func (c *Coordinator) register(spec ensemble.Spec, onUpdate func(ensemble.Aggregates)) (*run, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("cluster: coordinator closed")
	}
	c.seq++
	r := &run{
		id:            fmt.Sprintf("r%d", c.seq),
		spec:          spec,
		wire:          wireFromSpec(spec),
		onUpdate:      onUpdate,
		done:          make(chan struct{}),
		remoteWorkers: make(map[string]struct{}),
	}
	for _, rg := range ensemble.PlanRanges(spec.Replicates) {
		r.ranges = append(r.ranges, &rangeState{rng: rg})
	}
	c.runs[r.id] = r
	c.runOrder = append(c.runOrder, r.id)
	return r, nil
}

func (c *Coordinator) unregister(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.runs, id)
	for i, rid := range c.runOrder {
		if rid == id {
			c.runOrder = append(c.runOrder[:i], c.runOrder[i+1:]...)
			break
		}
	}
	for lid, l := range c.leases {
		if l.runID == id {
			delete(c.leases, lid)
		}
	}
}

// claimLocal takes the longest contiguous block of pending ranges
// starting at the first pending one — but only while no workers are
// live: with a cluster attached the coordinator leaves ranges to it.
func (c *Coordinator) claimLocal(r *run) []ensemble.Range {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.finished || c.liveWorkersLocked(time.Now()) > 0 {
		return nil
	}
	var block []ensemble.Range
	for _, rs := range r.ranges {
		if rs.state == rangePending {
			rs.state = rangeLeased
			rs.local = true
			block = append(block, rs.rng)
		} else if len(block) > 0 {
			break
		}
	}
	return block
}

// completeLocal folds one locally executed range; the true return stops
// the LocalRunner (run finished, failed, or cut off by early stopping).
func (c *Coordinator) completeLocal(r *run, p *ensemble.Partial) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.finished {
		return true
	}
	for _, rs := range r.ranges {
		if rs.rng.Lo == p.Lo && rs.rng.Hi == p.Hi && rs.state == rangeLeased && rs.local {
			rs.state = rangeDone
			rs.partial = p
			rs.local = false
			r.localRanges++
			c.foldLocked(r)
			break
		}
	}
	return r.finished
}

// failLocal returns a failed local block's unfinished ranges to pending
// (another claim or a worker retries them) and fails the run outright
// on cancellation or an internal simulation error.
func (c *Coordinator) failLocal(r *run, block []ensemble.Range, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rg := range block {
		for _, rs := range r.ranges {
			if rs.rng.Index == rg.Index && rs.state == rangeLeased && rs.local {
				rs.state = rangePending
				rs.local = false
			}
		}
	}
	if !r.finished {
		c.finishLocked(r, err)
	}
}

// Lease grants the next pending range to a worker, or returns nil when
// no work is available. The request itself marks the worker live.
func (c *Coordinator) Lease(workerID string) (*Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("cluster: coordinator closed")
	}
	now := time.Now()
	c.workersSeen[workerID] = now
	c.reapLocked(now)
	for _, rid := range c.runOrder {
		r := c.runs[rid]
		if r.finished {
			continue
		}
		for _, rs := range r.ranges {
			if rs.state != rangePending {
				continue
			}
			c.seq++
			l := &lease{
				id:      fmt.Sprintf("l%d", c.seq),
				runID:   r.id,
				rng:     rs.rng,
				worker:  workerID,
				expires: now.Add(c.opts.LeaseTTL),
			}
			rs.state = rangeLeased
			rs.leaseID = l.id
			c.leases[l.id] = l
			c.metrics.leases.With("granted").Inc()
			if rs.retries > 0 {
				c.metrics.leases.With("retried").Inc()
			}
			return &Lease{
				ID:        l.id,
				Run:       r.id,
				Range:     rs.rng,
				Spec:      r.wire,
				TTLMillis: c.opts.LeaseTTL.Milliseconds(),
			}, nil
		}
	}
	return nil, nil
}

// Heartbeat extends a lease. False means the lease is gone or
// superseded — the worker should abandon the range.
func (c *Coordinator) Heartbeat(leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	c.workersSeen[l.worker] = now
	r, ok := c.runs[l.runID]
	if !ok || r.finished {
		return false
	}
	rs := r.ranges[l.rng.Index]
	if rs.state != rangeLeased || rs.leaseID != leaseID {
		return false
	}
	l.expires = now.Add(c.opts.LeaseTTL)
	return true
}

// Complete resolves a worker's finished range. Duplicate completions —
// the same range finished twice after a lease expired and was reissued
// — are resolved deterministically by range identity: the partial for a
// given range is bit-identical whoever computes it, so the first
// arrival is folded and every later one reports accepted=false without
// touching the aggregate.
func (c *Coordinator) Complete(leaseID, workerID string, payload []byte) (bool, error) {
	p := &ensemble.Partial{}
	if err := p.UnmarshalBinary(payload); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workersSeen[workerID] = time.Now()
	l, ok := c.leases[leaseID]
	if !ok {
		return false, fmt.Errorf("%w %q", ErrUnknownLease, leaseID)
	}
	if p.Lo != l.rng.Lo || p.Hi != l.rng.Hi || p.Count != l.rng.Hi-l.rng.Lo {
		return false, fmt.Errorf("cluster: lease %s expected complete range [%d,%d), got [%d,%d) count %d",
			leaseID, l.rng.Lo, l.rng.Hi, p.Lo, p.Hi, p.Count)
	}
	r, ok := c.runs[l.runID]
	if !ok || r.finished {
		return false, nil
	}
	rs := r.ranges[l.rng.Index]
	if rs.state == rangeDone || rs.state == rangeSkipped || rs.local {
		return false, nil
	}
	// A completion on an expired-and-reissued lease still lands here
	// (rs.leaseID names the newer lease): the value is identical, so
	// accept the earliest arrival whatever granted it.
	rs.state = rangeDone
	rs.leaseID = ""
	rs.partial = p
	r.remoteRanges++
	r.remoteWorkers[workerID] = struct{}{}
	c.metrics.leases.With("completed").Inc()
	c.foldLocked(r)
	return true, nil
}

// foldLocked advances the run's fold frontier over completed ranges —
// a strict ascending left fold, the same one ensemble.Run performs
// internally — then applies early stopping and completion.
func (c *Coordinator) foldLocked(r *run) {
	for r.nextFold < len(r.ranges) && r.ranges[r.nextFold].state == rangeDone {
		rs := r.ranges[r.nextFold]
		start := time.Now()
		if r.folded == nil {
			r.folded = rs.partial
		} else if err := r.folded.Merge(rs.partial); err != nil {
			c.finishLocked(r, fmt.Errorf("cluster: merge range %d: %w", rs.rng.Index, err))
			return
		}
		c.metrics.merge.Observe(time.Since(start).Seconds())
		rs.partial = nil
		r.nextFold++
		if r.onUpdate != nil {
			r.onUpdate(r.folded.Aggregates(r.spec.Replicates, false))
		}
		if r.spec.StopEarly(r.folded) {
			r.early = true
			for _, rest := range r.ranges[r.nextFold:] {
				if rest.state != rangeDone {
					rest.state = rangeSkipped
				}
			}
			c.finishLocked(r, nil)
			return
		}
	}
	if r.nextFold == len(r.ranges) {
		c.finishLocked(r, nil)
	}
}

// reapLocked expires overdue leases, returning their ranges to pending
// (counted as a retry) and failing runs whose ranges keep dying.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		r, ok := c.runs[l.runID]
		if !ok || r.finished {
			delete(c.leases, id)
			continue
		}
		rs := r.ranges[l.rng.Index]
		if rs.state != rangeLeased || rs.leaseID != id {
			// The range resolved through another path; the record only
			// remains to settle a late completion, and an expired lease
			// can no longer produce one we would fold.
			delete(c.leases, id)
			continue
		}
		delete(c.leases, id)
		rs.state = rangePending
		rs.leaseID = ""
		rs.retries++
		r.retries++
		c.metrics.leases.With("expired").Inc()
		c.logf("cluster: lease %s expired (run %s range [%d,%d), retry %d)",
			id, r.id, l.rng.Lo, l.rng.Hi, rs.retries)
		if rs.retries > c.opts.MaxRetries {
			c.finishLocked(r, fmt.Errorf("cluster: range [%d,%d) failed %d leases",
				l.rng.Lo, l.rng.Hi, rs.retries))
		}
	}
}

// finishLocked marks a run finished (err == nil for success) and wakes
// its Run loop.
func (c *Coordinator) finishLocked(r *run, err error) {
	if r.finished {
		return
	}
	r.finished = true
	r.err = err
	close(r.done)
}

// finishResult renders a finished run's aggregates and distribution.
func (c *Coordinator) finishResult(r *run) (ensemble.Aggregates, Distribution, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var agg ensemble.Aggregates
	if r.folded != nil {
		agg = r.folded.Aggregates(r.spec.Replicates, r.early)
	} else {
		agg = ensemble.Aggregates{Requested: r.spec.Replicates, EarlyStopped: r.early}
	}
	dist := Distribution{
		Mode:         "local",
		Workers:      len(r.remoteWorkers),
		Ranges:       len(r.ranges),
		RangeSize:    ensemble.PlanRangeSize(r.spec.Replicates),
		Completed:    r.nextFold,
		LocalRanges:  r.localRanges,
		RemoteRanges: r.remoteRanges,
		Retries:      r.retries,
	}
	if r.remoteRanges > 0 {
		dist.Mode = "cluster"
	}
	return agg, dist, r.err
}

// Status is the coordinator's live state for GET /v1/cluster.
type Status struct {
	Workers       int               `json:"workers"`
	Runs          int               `json:"runs"`
	PendingRanges int               `json:"pendingRanges"`
	LeasedRanges  int               `json:"leasedRanges"`
	Leases        map[string]uint64 `json:"leases"`
}

// CurrentStatus snapshots the coordinator.
func (c *Coordinator) CurrentStatus() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.reapLocked(now)
	st := Status{
		Workers: c.liveWorkersLocked(now),
		Runs:    len(c.runs),
		Leases:  make(map[string]uint64),
	}
	for _, r := range c.runs {
		for _, rs := range r.ranges {
			switch rs.state {
			case rangePending:
				st.PendingRanges++
			case rangeLeased:
				st.LeasedRanges++
			}
		}
	}
	c.metrics.leases.Each(func(values []string, count uint64) {
		st.Leases[values[0]] = count
	})
	return st
}
