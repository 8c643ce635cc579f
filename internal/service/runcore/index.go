package runcore

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
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
// lock, the cross-kind submission and terminal-state instruments, the
// closed flag, and the optional durable store the per-kind LRUs cache in
// front of.
type Core struct {
	// Store, when non-nil, persists finished results and serves them back
	// across restarts. It belongs to the caller that opened it.
	Store *store.Store

	mu     sync.Mutex
	closed bool

	// submissions counts every Submit by (kind, outcome); runs counts
	// every terminal transition Execute files, by (kind, state) — cached
	// and restored answers don't run, so they show only in submissions;
	// persistErrs counts failed persistence attempts. The instruments
	// always exist — Register attaches them to a registry for exposition.
	submissions *obs.CounterVec
	runs        *obs.CounterVec
	persistErrs *obs.Counter
}

// NewCore returns a core over the (possibly nil) durable store.
func NewCore(st *store.Store) *Core {
	return &Core{
		Store: st,
		submissions: obs.NewCounterVec("popprotod_runcore_submissions_total",
			"Run submissions by kind and outcome (hit, joined, miss, restored).",
			"kind", "outcome"),
		runs: obs.NewCounterVec("popprotod_runs_total",
			"Runs that reached a terminal state in this process, by kind and state.",
			"kind", "state"),
		persistErrs: obs.NewCounter("popprotod_runcore_persist_errors_total",
			"Finished results that failed to persist to the durable store."),
	}
}

// Register attaches the core's instruments to reg for exposition.
func (c *Core) Register(reg *obs.Registry) {
	reg.MustRegister(c.submissions, c.runs, c.persistErrs)
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
	Context() context.Context
	Begin() bool
	Cancel()
	Finish(state State, errMsg string, update func())
}

// Index is one run kind's finished-work cache and in-flight index on a
// shared Core: an LRU keyed by canonical spec in front of the core's
// durable store, plus the id index used for lookups, joins and
// cancellation. All methods take the core's lock; one Core serializes
// submissions across all its indexes.
type Index[R Lifecycle] struct {
	core *Core
	kind store.Kind
	id   func(R) string

	// Cached per-kind children of the core's submissions family —
	// creating them at construction also pre-seeds the series so every
	// (kind, outcome) pair renders on /metrics from startup, as NewIndex
	// does for the runs family's (kind, state) pairs.
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
	for _, st := range []State{StateDone, StateFailed, StateCanceled} {
		core.runs.With(string(kind), string(st))
	}
	x.cache = newLRU(cacheSize, func(r R) { delete(x.byID, id(r)) })
	return x
}

// Outcome reports how a submission was answered.
type Outcome int

const (
	// OutcomeNew: fresh work was created (and handed to Execute by its
	// creator).
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
// (nil, or returning false, skips restoration); create builds a fresh
// run and enqueues it (failing with ErrBusy when the queue is full), or
// leaves it to the caller to Execute inline (a sweep cell). Both
// callbacks run under the core's lock and must not re-enter the index.
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

// Work is a run's body, called by Execute under the run's context. It
// returns the update that stores its outcome on the run — run under the
// run's lock in the terminal transition, whatever the state (nil for
// none) — and, when it succeeds, the data of the run's durable record.
type Work func(ctx context.Context) (update func(), data any, err error)

// Execute is the one lifecycle every run follows: Begin, work, settle.
// A run canceled while queued settles canceled without working.
// Otherwise work's error decides the state (Settled), and a done run's
// data is persisted under (key, r's id, spec). A panic in work fails the
// run with the error "panic: …" (its stack logged once) instead of
// taking the process down. abort, if non-nil, runs under the run's lock
// in every terminal transition but done, so a kind can mark its replay
// state (a sweep's unfinished cells) atomically with it: a subscriber
// whose channel closes never observes the run with stale replay state.
func (x *Index[R]) Execute(key string, r R, spec any, abort func(), work Work) {
	if !r.Begin() {
		x.settle(key, r, StateCanceled, "canceled while queued", abort)
		return
	}
	update, data, err := x.work(r, work)
	state, errMsg := Settled(err)
	x.settle(key, r, state, errMsg, func() {
		if update != nil {
			update()
		}
		if state != StateDone && abort != nil {
			abort()
		}
	})
	if state == StateDone {
		x.core.Persist(x.kind, key, x.id(r), spec, data)
	}
}

// work calls w under r's context, turning a panic into its error.
func (x *Index[R]) work(r R, w Work) (update func(), data any, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("runcore: %s %s panicked: %v\n%s", x.kind, x.id(r), p, debug.Stack())
			update, data, err = nil, nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return w(r.Context())
}

// settle is a run's terminal transition together with its filing: under
// the core's lock it counts the transition, runs r.Finish(state, errMsg,
// update) and files r under its canonical key (evicting the oldest
// entries, and with them their id index). Nothing can observe r done
// before it is filed, so a client that resubmits the instant Done()
// closes is a cache hit, never a duplicate run. The lock order is
// Submit's: core lock, then run lock.
func (x *Index[R]) settle(key string, r R, state State, errMsg string, update func()) {
	x.core.mu.Lock()
	defer x.core.mu.Unlock()
	x.core.runs.With(string(x.kind), string(state)).Inc()
	r.Finish(state, errMsg, update)
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
