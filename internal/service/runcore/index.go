package runcore

import (
	"sync"

	"popproto/internal/obs"
	"popproto/internal/store"
)

// Submission outcome label values of the popprotod_runcore_submissions
// counter family (the obs promotion of the former ad-hoc hit/join/miss
// counters — /v1/health sums the same instruments /metrics renders, so
// the two can never disagree).
const (
	outcomeHit      = "hit"
	outcomeJoined   = "joined"
	outcomeMiss     = "miss"
	outcomeRestored = "restored"
)

// Core owns what every run kind's cache shares: the single submission
// lock, the cross-kind hit/join/miss instruments, the closed flag, and
// the optional durable store the per-kind LRUs cache in front of.
type Core struct {
	// Store, when non-nil, persists finished results and serves them back
	// across restarts. It belongs to the caller that opened it.
	Store *store.Store

	mu     sync.Mutex
	closed bool

	// submissions counts every Submit by (kind, outcome); persistErrs
	// counts failed persistence attempts. The instruments always exist —
	// Register attaches them to a registry for exposition.
	submissions *obs.CounterVec
	persistErrs *obs.Counter
}

// NewCore returns a core over the (possibly nil) durable store.
func NewCore(st *store.Store) *Core {
	return &Core{
		Store: st,
		submissions: obs.NewCounterVec("popprotod_runcore_submissions_total",
			"Run submissions by kind and outcome (hit, joined, miss, restored).",
			"kind", "outcome"),
		persistErrs: obs.NewCounter("popprotod_runcore_persist_errors_total",
			"Finished results that failed to persist to the durable store."),
	}
}

// Register attaches the core's instruments to reg for exposition.
func (c *Core) Register(reg *obs.Registry) {
	reg.MustRegister(c.submissions, c.persistErrs)
}

// SetClosed marks the core closed and reports whether it was already.
func (c *Core) SetClosed() (already bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	already = c.closed
	c.closed = true
	return already
}

// Counters is a snapshot of the shared submission counters.
type Counters struct {
	// Hits counts submissions answered from a finished-work cache, Joined
	// those coalesced onto an identical in-flight run, and Misses those
	// that started fresh work. All kinds share these counters.
	Hits, Joined, Misses uint64
	// StoreHits counts submissions answered from the durable store after
	// missing the in-memory cache (after a restart or an LRU eviction);
	// StoreErrors counts failed persistence attempts.
	StoreHits, StoreErrors uint64
	// Stored is the number of results in the durable store (0 without
	// one).
	Stored int
}

// Counters snapshots the shared counters by summing the same obs
// instruments /metrics renders — one source of truth for both surfaces.
func (c *Core) Counters() Counters {
	var s Counters
	c.submissions.Each(func(values []string, n uint64) {
		switch values[1] {
		case outcomeHit:
			s.Hits += n
		case outcomeJoined:
			s.Joined += n
		case outcomeMiss:
			s.Misses += n
		case outcomeRestored:
			s.StoreHits += n
		}
	})
	s.StoreErrors = c.persistErrs.Value()
	if c.Store != nil {
		s.Stored = c.Store.Len()
	}
	return s
}

// Persist appends a finished result to the durable store (best-effort:
// a persistence failure is counted, not fatal — the in-memory result
// still serves).
func (c *Core) Persist(kind store.Kind, key, id string, spec, data any) {
	if c.Store == nil {
		return
	}
	if err := c.Store.Put(kind, key, id, spec, data); err != nil {
		c.persistErrs.Inc()
	}
}

// Lifecycle is the surface Index needs from a kind's run type; every
// kind satisfies it by embedding *Run[E].
type Lifecycle interface {
	State() State
	Cancel()
	Finish(state State, errMsg string, update func())
}

// Index is one run kind's finished-work cache and in-flight index on a
// shared Core: an LRU keyed by canonical spec in front of the core's
// durable store, plus the id index used for lookups, joins and
// cancellation. All methods take the core's lock; one Core serializes
// submissions across all its indexes, which is what makes cross-kind
// cache interactions (a sweep cell populating the experiment cache) a
// single atomic step.
type Index[R Lifecycle] struct {
	core *Core
	kind store.Kind
	id   func(R) string

	// Cached per-kind children of the core's submissions family —
	// creating them at construction also pre-seeds the series so every
	// (kind, outcome) pair renders on /metrics from startup.
	hit, joined, miss, restored *obs.Counter

	byID  map[string]R
	cache *lru[R]
}

// NewIndex registers a run kind's index on the core. kind scopes its
// records in the durable store; id projects a run to its public id;
// cacheSize bounds the finished-work LRU.
func NewIndex[R Lifecycle](core *Core, kind store.Kind, cacheSize int, id func(R) string) *Index[R] {
	x := &Index[R]{
		core:     core,
		kind:     kind,
		id:       id,
		hit:      core.submissions.With(string(kind), outcomeHit),
		joined:   core.submissions.With(string(kind), outcomeJoined),
		miss:     core.submissions.With(string(kind), outcomeMiss),
		restored: core.submissions.With(string(kind), outcomeRestored),
		byID:     make(map[string]R),
	}
	x.cache = newLRU(cacheSize, func(r R) { delete(x.byID, id(r)) })
	return x
}

// Outcome reports how a submission was answered.
type Outcome int

const (
	// OutcomeNew: fresh work was created and enqueued.
	OutcomeNew Outcome = iota
	// OutcomeHit: answered from the finished-work cache.
	OutcomeHit
	// OutcomeJoined: coalesced onto an identical in-flight run.
	OutcomeJoined
	// OutcomeRestored: answered from the durable store (a cache miss that
	// did not need re-simulation).
	OutcomeRestored
)

// Cached reports whether the outcome served finished work without
// scheduling anything.
func (o Outcome) Cached() bool { return o == OutcomeHit || o == OutcomeRestored }

// Submit is the one submission discipline every kind runs: answer from
// the finished-work cache (except canceled runs, which are evicted and
// re-run — cancellation is an operator action, not the spec's
// deterministic outcome), else coalesce onto an identical in-flight
// run, else restore from the durable store via decode, else create
// fresh work. decode reconstructs a finished run from a store record
// (nil, or returning false, skips restoration); create builds and
// enqueues a fresh run and may fail with ErrBusy. Both callbacks run
// under the core's lock and must not re-enter the index.
func (x *Index[R]) Submit(key, id string,
	decode func(store.Record) (R, bool),
	create func() (R, error),
) (R, Outcome, error) {
	var zero R
	c := x.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return zero, OutcomeNew, ErrClosed
	}
	if r, ok := x.cache.get(key); ok {
		if r.State() != StateCanceled {
			x.hit.Inc()
			return r, OutcomeHit, nil
		}
		x.cache.remove(key)
		delete(x.byID, x.id(r))
	}
	if r, ok := x.byID[id]; ok && !r.State().Terminal() {
		x.joined.Inc()
		return r, OutcomeJoined, nil
	}
	if r, ok := x.restoreLocked(key, decode); ok {
		x.restored.Inc()
		return r, OutcomeRestored, nil
	}
	r, err := create()
	if err != nil {
		return zero, OutcomeNew, err
	}
	x.byID[id] = r
	x.miss.Inc()
	return r, OutcomeNew, nil
}

// restoreLocked reconstructs a finished run from the durable store's
// record for key and indexes it like freshly finished work. Callers
// hold the core's lock.
func (x *Index[R]) restoreLocked(key string, decode func(store.Record) (R, bool)) (R, bool) {
	var zero R
	if x.core.Store == nil || decode == nil {
		return zero, false
	}
	rec, ok := x.core.Store.Get(x.kind, key)
	if !ok {
		return zero, false
	}
	r, ok := decode(rec)
	if !ok {
		return zero, false
	}
	x.byID[x.id(r)] = r
	x.cache.put(key, r)
	return r, true
}

// Get returns the run with the given id, restoring it from the durable
// store (via decode, keyed by the store record's canonical key) if it
// is no longer indexed in memory.
func (x *Index[R]) Get(id string, decode func(store.Record) (R, bool)) (R, bool) {
	c := x.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := x.byID[id]; ok {
		return r, true
	}
	if c.Store != nil {
		if rec, ok := c.Store.GetByID(id); ok && rec.Kind == x.kind {
			if r, ok := x.restoreLocked(rec.Key, decode); ok {
				x.restored.Inc()
				return r, true
			}
		}
	}
	var zero R
	return zero, false
}

// Lookup returns the cached finished run for a canonical key without
// touching the store, reporting whether it exists. Used for cross-kind
// reuse (a sweep cell consulting the experiment cache).
func (x *Index[R]) Lookup(key string) (R, bool) {
	x.core.mu.Lock()
	defer x.core.mu.Unlock()
	return x.cache.get(key)
}

// Finish is a run's terminal transition together with its filing: under
// the core's lock it runs r.Finish(state, errMsg, update) — a no-op for
// a run already terminal — and files r under its canonical key (evicting
// the oldest entries, and with them their id index), in that order.
// Nothing can observe r done before it is filed, so a client that
// resubmits the instant Done() closes is a cache hit, never a duplicate
// run. The lock order is Submit's: core lock, then run lock.
//
// Runs created by Submit are already in the id index; synthetic runs
// (sweep cells shared into the experiment cache) are indexed here. If a
// *live* (non-terminal) run already holds the id — an identical
// in-flight run raced this one to the same result — neither index is
// touched: the live run must stay addressable (cancellation included)
// and will file itself when it finishes.
func (x *Index[R]) Finish(key string, r R, state State, errMsg string, update func()) {
	x.core.mu.Lock()
	defer x.core.mu.Unlock()
	r.Finish(state, errMsg, update)
	if cur, ok := x.byID[x.id(r)]; ok && !cur.State().Terminal() {
		return
	}
	x.byID[x.id(r)] = r
	x.cache.put(key, r)
}

// Cancel requests cancellation of the run with the given id, reporting
// whether it exists. Finished runs are unaffected.
func (x *Index[R]) Cancel(id string) bool {
	x.core.mu.Lock()
	r, ok := x.byID[id]
	x.core.mu.Unlock()
	if ok {
		r.Cancel()
	}
	return ok
}

// CancelAll cancels every indexed run (shutdown path).
func (x *Index[R]) CancelAll() {
	x.core.mu.Lock()
	runs := make([]R, 0, len(x.byID))
	for _, r := range x.byID {
		runs = append(runs, r)
	}
	x.core.mu.Unlock()
	for _, r := range runs {
		r.Cancel()
	}
}

// Len returns the number of indexed runs (live + cached).
func (x *Index[R]) Len() int {
	x.core.mu.Lock()
	defer x.core.mu.Unlock()
	return len(x.byID)
}

// CacheLen returns the finished-work LRU's current size.
func (x *Index[R]) CacheLen() int {
	x.core.mu.Lock()
	defer x.core.mu.Unlock()
	return x.cache.len()
}
