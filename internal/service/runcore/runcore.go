// Package runcore is the generic run-orchestration core behind every
// kind of managed work the popprotod service runs — single jobs,
// Monte-Carlo experiments, and parameter sweeps. It owns, exactly once,
// the four pieces those kinds used to duplicate:
//
//   - the lifecycle state machine (queued → running → done/failed/canceled),
//   - the streaming fanout (per-run subscriber channels with the
//     close-only-on-finish discipline the SSE handlers depend on),
//   - the scheduler (one bounded-queue worker pool shared by all kinds,
//     with per-kind admission capacity, per-kind concurrency caps, and
//     round-robin fairness between kinds under mixed load), and
//   - the finished-work cache (an LRU per kind in front of the optional
//     durable store, with canonical-key dedup, in-flight coalescing, and
//     restore-on-miss across restarts).
//
// A run kind (service.Job, service.Experiment, service.Sweep) embeds a
// *Run[E] for lifecycle and fanout, registers a Class on the shared
// Scheduler, and drives submissions through an Index[R]. Everything a
// kind adds on top — its spec, its result payload, its replay policy —
// stays in the kind; everything two kinds would otherwise both
// implement lives here.
package runcore

import (
	"context"
	"errors"
)

// Submission failures shared by every run kind, distinguished so the
// HTTP layer can map them to status codes (429/503) separate from spec
// validation 400s.
var (
	// ErrBusy reports a full queue; the caller should retry later.
	ErrBusy = errors.New("service: job queue is full")
	// ErrClosed reports submission to a manager that has been shut down.
	ErrClosed = errors.New("service: manager is closed")
)

// State is a run's lifecycle state, shared by every run kind.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions are possible.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Settled returns the terminal state a run's work settles in, and the
// run's error message, by the error the work ended with: done for nil,
// canceled for a context error, failed for any other.
func Settled(err error) (State, string) {
	switch {
	case err == nil:
		return StateDone, ""
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StateCanceled, "canceled"
	}
	return StateFailed, err.Error()
}
