package runcore

import (
	"context"
	"sync"
	"time"
)

// Run is the lifecycle-and-fanout base every run kind embeds: the state
// machine, the cancellation context, the subscriber set for streaming
// events of type E, and the timestamps. All exported methods are safe
// for concurrent use.
//
// The fanout close discipline — the invariant the SSE handlers rely on —
// is enforced here once: subscriber channels are closed ONLY by Finish,
// which runs on the run's worker goroutine, the same goroutine that
// calls Publish, so a send can never race a close. A subscription's
// cancel function only deletes the entry.
//
// Kinds keep their replay state (a job's snapshot trajectory, an
// experiment's latest aggregates) next to the Run and mutate it under
// the Run's own lock via the locked-callback parameters of Publish,
// Subscribe, Finish and View — that is what makes "copy the replay,
// then register" atomic with respect to concurrent publishes.
type Run[E any] struct {
	// ID is the public identifier, derived from the canonical spec key.
	ID string

	ctx      context.Context
	cancelFn context.CancelFunc

	mu       sync.Mutex
	state    State
	errMsg   string
	subs     map[chan E]struct{}
	done     chan struct{}
	restored bool

	created, started, finished time.Time
}

// NewRun returns a queued run with a live cancellation context.
func NewRun[E any](id string) *Run[E] {
	ctx, cancel := context.WithCancel(context.Background())
	return &Run[E]{
		ID:       id,
		ctx:      ctx,
		cancelFn: cancel,
		state:    StateQueued,
		subs:     make(map[chan E]struct{}),
		done:     make(chan struct{}),
		created:  time.Now(),
	}
}

// NewRestoredRun returns a run reconstructed from the durable store
// after a restart: done from birth, context canceled, no subscribers.
func NewRestoredRun[E any](id string, savedAt time.Time) *Run[E] {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	close(done)
	return &Run[E]{
		ID:       id,
		ctx:      ctx,
		cancelFn: cancel,
		state:    StateDone,
		restored: true,
		done:     done,
		created:  savedAt,
		started:  savedAt,
		finished: savedAt,
	}
}

// Context returns the run's cancellation context; workers pass it to
// the simulation drivers.
func (r *Run[E]) Context() context.Context { return r.ctx }

// RunID returns the public identifier. It exists so type-erased callers
// (the HTTP middleware's request-log annotation) can extract the id from
// any kind via one interface assertion.
func (r *Run[E]) RunID() string { return r.ID }

// Cancel requests cancellation. Finished runs are unaffected (their
// state is already terminal; the context release is idempotent).
func (r *Run[E]) Cancel() { r.cancelFn() }

// State returns the current lifecycle state.
func (r *Run[E]) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Done returns a channel closed when the run reaches a terminal state.
func (r *Run[E]) Done() <-chan struct{} { return r.done }

// Meta is a point-in-time snapshot of the lifecycle fields shared by
// every kind's JSON view.
type Meta struct {
	State    State
	Err      string
	Restored bool
	Created  time.Time
	Started  *time.Time
	Finished *time.Time
}

// Meta snapshots the lifecycle fields for view rendering.
func (r *Run[E]) Meta() Meta {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := Meta{
		State:    r.state,
		Err:      r.errMsg,
		Restored: r.restored,
		Created:  r.created,
	}
	if !r.started.IsZero() {
		t := r.started
		m.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		m.Finished = &t
	}
	return m
}

// Locked runs f under the run's lock. Kinds use it to read or mutate
// their replay/result state with the same mutex that orders publishes,
// subscriptions and the finish transition.
func (r *Run[E]) Locked(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f()
}

// Begin moves a queued run to running, or reports false if it was
// canceled while waiting in the queue (Index.Execute then settles it
// canceled without running it).
func (r *Run[E]) Begin() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctx.Err() != nil || r.state != StateQueued {
		return false
	}
	r.state = StateRunning
	r.started = time.Now()
	return true
}

// Publish fans e out to the current subscribers without blocking the
// worker (slow subscribers miss events rather than stalling the run).
// update, if non-nil, runs under the run's lock first, so kinds can
// append e to their replay state atomically with the fanout.
func (r *Run[E]) Publish(e E, update func()) {
	r.mu.Lock()
	if update != nil {
		update()
	}
	fanout := make([]chan E, 0, len(r.subs))
	for ch := range r.subs {
		fanout = append(fanout, ch)
	}
	r.mu.Unlock()
	for _, ch := range fanout {
		select {
		case ch <- e:
		default:
		}
	}
}

// Subscribe returns a channel of subsequent events; the channel is
// closed when the run finishes (and is already closed for a finished
// run). replay, if non-nil, runs under the run's lock before the
// registration, so the kind's copy of its replay state and the
// registration are one atomic step — no event can fall between them.
// The returned cancel stops delivery without closing the channel (only
// completion closes it) and is safe to call more than once; a consumer
// that cancels early must stop reading on its own signal, as the SSE
// handlers do via the request context.
func (r *Run[E]) Subscribe(buffer int, replay func()) (live <-chan E, cancel func()) {
	ch := make(chan E, buffer)
	r.mu.Lock()
	if replay != nil {
		replay()
	}
	if r.state.Terminal() {
		r.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	r.subs[ch] = struct{}{}
	r.mu.Unlock()
	return ch, func() {
		r.mu.Lock()
		delete(r.subs, ch) // no-op after Finish set subs to nil
		r.mu.Unlock()
	}
}

// Finish transitions to a terminal state, closing the done channel and
// every live subscription, and releasing the context. update, if
// non-nil, runs under the lock before the transition (kinds store their
// final result there, atomically with going terminal). Repeated calls
// after the first terminal transition are no-ops (update included).
func (r *Run[E]) Finish(state State, errMsg string, update func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Terminal() {
		return
	}
	if update != nil {
		update()
	}
	r.state = state
	r.errMsg = errMsg
	r.finished = time.Now()
	for ch := range r.subs {
		close(ch)
	}
	r.subs = nil
	close(r.done)
	r.cancelFn() // release the context's resources
}
