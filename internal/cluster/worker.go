package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"popproto/internal/ensemble"
)

// Worker pulls replicate-range leases from a coordinator, executes each
// as a one-range ensemble.RunRanges block (so the partial is
// bit-identical to any other executor's), and posts back the binary
// partial aggregate. A background heartbeat keeps each lease alive; if
// the heartbeat is rejected — the coordinator expired and reissued the
// range — the worker abandons the range immediately. A worker that
// simply dies is handled by the same mechanism from the other side: its
// lease expires and the range is reissued, and because the range's value
// is deterministic a duplicate completion can never corrupt the merge.
type Worker struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// ID names this worker to the coordinator (default "host:pid").
	ID string
	// Workers bounds replicate parallelism within a leased range
	// (<= 0 selects min(NumCPU, 8)).
	Workers int
	// Poll is the idle re-poll interval when no work is available
	// (0 = 250ms).
	Poll time.Duration
	// Client is the HTTP client to use (nil = http.DefaultClient).
	Client *http.Client
	// OnLease, when set, observes each granted lease before execution —
	// a test hook for fault injection.
	OnLease func(Lease)
	// Logf, when set, receives worker events.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// Run pulls and executes leases until ctx is canceled.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		host, _ := os.Hostname()
		w.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if w.Workers <= 0 {
		w.Workers = min(runtime.NumCPU(), 8)
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, err := w.requestLease(ctx)
		switch {
		case err != nil:
			w.logf("cluster worker %s: lease request: %v", w.ID, err)
			fallthrough
		case lease == nil:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
		default:
			w.execute(ctx, *lease)
		}
	}
}

func (w *Worker) requestLease(ctx context.Context) (*Lease, error) {
	body, err := json.Marshal(leaseRequest{Worker: w.ID})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+"/v1/cluster/leases", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var lr leaseResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			return nil, err
		}
		return lr.Lease, nil
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("coordinator answered %s", resp.Status)
	}
}

// execute runs one leased range under a heartbeat and posts the result.
// Failures are not reported to the coordinator — an abandoned lease
// simply expires and the range is reissued.
func (w *Worker) execute(ctx context.Context, l Lease) {
	spec, err := l.Spec.Spec()
	if err != nil {
		w.logf("cluster worker %s: lease %s: %v", w.ID, l.ID, err)
		return
	}
	if w.OnLease != nil {
		w.OnLease(l)
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		interval := time.Duration(l.TTLMillis) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-rctx.Done():
				return
			case <-t.C:
				if !w.heartbeat(rctx, l.ID) {
					// Lease gone — the range was reissued elsewhere;
					// stop burning cycles on it.
					w.logf("cluster worker %s: lease %s superseded, abandoning", w.ID, l.ID)
					cancel()
					return
				}
			}
		}
	}()

	var p *ensemble.Partial
	err = ensemble.RunRanges(rctx, spec, []ensemble.Range{l.Range}, w.Workers, func(done *ensemble.Partial) bool {
		p = done
		return false
	})
	if err != nil {
		w.logf("cluster worker %s: lease %s range [%d,%d): %v",
			w.ID, l.ID, l.Range.Lo, l.Range.Hi, err)
		return
	}
	payload, err := p.MarshalBinary()
	if err != nil {
		w.logf("cluster worker %s: lease %s: marshal: %v", w.ID, l.ID, err)
		return
	}
	w.complete(ctx, l, payload)
}

func (w *Worker) heartbeat(ctx context.Context, leaseID string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/cluster/leases/%s/heartbeat", w.Coordinator, leaseID), nil)
	if err != nil {
		return false
	}
	resp, err := w.client().Do(req)
	if err != nil {
		// Transient coordinator unavailability is not a supersede signal;
		// keep computing and let the next beat (or lease expiry) decide.
		return true
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	return resp.StatusCode == http.StatusOK
}

// complete posts the partial, retrying a few times — the range cost
// real compute, and a transient coordinator hiccup should not force a
// full re-execution elsewhere.
func (w *Worker) complete(ctx context.Context, l Lease, payload []byte) {
	body, err := json.Marshal(completeRequest{Worker: w.ID, Partial: payload})
	if err != nil {
		w.logf("cluster worker %s: lease %s: %v", w.ID, l.ID, err)
		return
	}
	url := fmt.Sprintf("%s/v1/cluster/leases/%s/complete", w.Coordinator, l.ID)
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(attempt) * 200 * time.Millisecond):
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.client().Do(req)
		if err != nil {
			w.logf("cluster worker %s: lease %s: complete: %v", w.ID, l.ID, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		w.logf("cluster worker %s: lease %s: complete answered %s", w.ID, l.ID, resp.Status)
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusBadRequest {
			return // not retryable
		}
	}
}
