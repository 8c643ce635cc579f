package runcore

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSchedulerRoundRobinFairness pins the dispatch order: with one
// worker and queued work in two classes, dispatch alternates between
// the classes instead of draining the first class first.
func TestSchedulerRoundRobinFairness(t *testing.T) {
	s := NewScheduler(1)
	a := s.NewClass("a", 16, 1)
	b := s.NewClass("b", 16, 1)

	var mu sync.Mutex
	var order []string
	record := func(name string) Task {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}

	// Block the single worker so the queues fill before dispatch starts.
	release := make(chan struct{})
	if err := a.Enqueue(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	// Give the worker time to pick up the blocker.
	time.Sleep(20 * time.Millisecond)
	for _, task := range []struct {
		c    *Class
		name string
	}{{a, "a1"}, {a, "a2"}, {b, "b1"}, {b, "b2"}} {
		if err := task.c.Enqueue(record(task.name)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	s.Close()

	want := []string{"b1", "a1", "b2", "a2"} // round-robin after the class-a blocker
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (no round-robin fairness)", order, want)
		}
	}
}

// TestSchedulerConcurrencyCap: a class never exceeds its maxRunning even
// with idle workers available.
func TestSchedulerConcurrencyCap(t *testing.T) {
	s := NewScheduler(4)
	c := s.NewClass("capped", 16, 2)

	var mu sync.Mutex
	running, maxSeen := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		if err := c.Enqueue(func() {
			defer wg.Done()
			mu.Lock()
			running++
			if running > maxSeen {
				maxSeen = running
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s.Close()
	if maxSeen > 2 {
		t.Fatalf("observed %d concurrent tasks, cap is 2", maxSeen)
	}
}

// TestSchedulerBusyAndClosed: admission control reports the shared
// sentinel errors, and tasks queued at Close time still run (the
// cancel-drain path every kind's canceled-while-queued transition
// depends on).
func TestSchedulerBusyAndClosed(t *testing.T) {
	s := NewScheduler(1)
	c := s.NewClass("c", 1, 1)

	release := make(chan struct{})
	if err := c.Enqueue(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // worker holds the blocker
	drained := make(chan struct{})
	if err := c.Enqueue(func() { close(drained) }); err != nil {
		t.Fatal(err) // occupies the single queue slot
	}
	if err := c.Enqueue(func() {}); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow enqueue error = %v, want ErrBusy", err)
	}

	close(release)
	s.Close() // must drain the queued task before the workers exit
	select {
	case <-drained:
	default:
		t.Fatal("task queued before Close never ran")
	}
	if err := c.Enqueue(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close enqueue error = %v, want ErrClosed", err)
	}
}

// TestRunCloseDiscipline: subscriber channels are closed exactly once,
// by Finish, never by the subscription's cancel; replay callbacks are
// atomic with registration; terminal runs hand back a closed channel.
func TestRunCloseDiscipline(t *testing.T) {
	r := NewRun[int](id(t))
	var replay []int

	live, cancel := r.Subscribe(8, nil)
	r.Publish(1, func() { replay = append(replay, 1) })
	r.Publish(2, func() { replay = append(replay, 2) })
	if got := <-live; got != 1 {
		t.Fatalf("first event = %d, want 1", got)
	}
	cancel()
	cancel() // safe to call twice
	// After cancel the channel stays open (only Finish closes it); no
	// further events are delivered.
	select {
	case v, open := <-live:
		if !open {
			t.Fatal("cancel closed the subscription channel")
		}
		if v != 2 {
			t.Fatalf("unexpected event %d after buffered 2", v)
		}
	default:
	}

	var final string
	r.Finish(StateDone, "", func() { final = "set" })
	if final != "set" {
		t.Fatal("Finish update callback did not run")
	}
	if r.State() != StateDone {
		t.Fatalf("state = %s, want done", r.State())
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("done channel not closed")
	}
	// Finish after terminal is a no-op, update callback included.
	r.Finish(StateFailed, "boom", func() { final = "clobbered" })
	if r.State() != StateDone || final != "set" {
		t.Fatalf("second Finish mutated a terminal run: state=%s final=%q", r.State(), final)
	}

	// Subscribing to a terminal run: replay runs, channel arrives closed.
	var seen []int
	live2, cancel2 := r.Subscribe(8, func() { seen = append(seen, replay...) })
	defer cancel2()
	if _, open := <-live2; open {
		t.Fatal("terminal run's subscription channel not closed")
	}
	if len(seen) != 2 {
		t.Fatalf("replay callback saw %d events, want 2", len(seen))
	}
}

// TestRunBeginAfterCancel: a queued run canceled before its worker
// dequeues it does not begin, and Execute settles it canceled without
// running its work.
func TestRunBeginAfterCancel(t *testing.T) {
	r := NewRun[int](id(t))
	r.Cancel()
	if r.Begin() {
		t.Fatal("Begin succeeded on a canceled run")
	}
	x := NewIndex(NewCore(nil), "job", 4, func(r *Run[int]) string { return r.ID })
	x.Execute("key", r, nil, nil, func(context.Context) (func(), any, error) {
		t.Error("work ran for a run canceled while queued")
		return nil, nil, nil
	})
	if r.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", r.State())
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("canceled-while-queued run's done channel not closed")
	}
}

func id(t *testing.T) string { return t.Name() }

// TestResubmitOnDoneIsCacheHit: a run's Done() closes only once the run
// is filed in the cache, so a client that resubmits the instant it sees
// done is a cache hit — never a miss that starts a duplicate run.
func TestResubmitOnDoneIsCacheHit(t *testing.T) {
	x := NewIndex(NewCore(nil), "job", 4, func(r *Run[int]) string { return r.ID })
	for i := 0; i < 1000; i++ {
		key, id := fmt.Sprintf("key-%d", i), fmt.Sprintf("id-%d", i)
		create := func() (*Run[int], error) { return NewRun[int](id), nil }
		r, _, err := x.Submit(key, id, nil, create)
		if err != nil {
			t.Fatal(err)
		}
		waiting := make(chan struct{})
		outcome := make(chan Outcome)
		go func() {
			close(waiting)
			<-r.Done()
			_, out, _ := x.Submit(key, id, nil, create)
			outcome <- out
		}()
		<-waiting
		x.Execute(key, r, nil, nil, func(context.Context) (func(), any, error) { return nil, nil, nil })
		if out := <-outcome; out != OutcomeHit {
			t.Fatalf("iteration %d: resubmission on done got outcome %d, want a cache hit", i, out)
		}
	}
}

// TestExecuteSettles pins the one terminal decision every run kind
// shares: a nil error settles done (with the work's update applied), a
// context error canceled, any other error failed, a cancellation while
// queued canceled without working — and each transition is counted
// once in runs_total.
func TestExecuteSettles(t *testing.T) {
	core := NewCore(nil)
	x := NewIndex(core, "job", 8, func(r *Run[int]) string { return r.ID })
	cases := []struct {
		name     string
		cancel   bool // before Execute: canceled while queued
		err      error
		want     State
		wantErr  string
		worked   bool
		updated  bool
		canceled bool // abort ran
	}{
		{name: "done", want: StateDone, worked: true, updated: true},
		{name: "canceled", err: fmt.Errorf("drive: %w", context.Canceled), want: StateCanceled, wantErr: "canceled", worked: true, updated: true, canceled: true},
		{name: "failed", err: errors.New("boom"), want: StateFailed, wantErr: "boom", worked: true, updated: true, canceled: true},
		{name: "queued", cancel: true, want: StateCanceled, wantErr: "canceled while queued", canceled: true},
	}
	for _, tc := range cases {
		key := "key-" + tc.name
		r, _, err := x.Submit(key, tc.name, nil, func() (*Run[int], error) { return NewRun[int](tc.name), nil })
		if err != nil {
			t.Fatal(err)
		}
		if tc.cancel {
			r.Cancel()
		}
		var worked, updated, aborted bool
		x.Execute(key, r, nil, func() { aborted = true }, func(ctx context.Context) (func(), any, error) {
			worked = true
			return func() { updated = true }, nil, tc.err
		})
		meta := r.Meta()
		if meta.State != tc.want || meta.Err != tc.wantErr {
			t.Errorf("%s: settled %s %q, want %s %q", tc.name, meta.State, meta.Err, tc.want, tc.wantErr)
		}
		if worked != tc.worked || updated != tc.updated || aborted != tc.canceled {
			t.Errorf("%s: worked=%v updated=%v aborted=%v, want %v %v %v",
				tc.name, worked, updated, aborted, tc.worked, tc.updated, tc.canceled)
		}
		if tc.want == StateCanceled {
			continue // a resubmission evicts a canceled run and runs anew
		}
		if got, out, _ := x.Submit(key, tc.name, nil, nil); got != r || out != OutcomeHit {
			t.Errorf("%s: settled run not filed in the cache", tc.name)
		}
	}
	want := map[string]uint64{"done": 1, "canceled": 2, "failed": 1}
	core.runs.Each(func(values []string, n uint64) {
		if values[0] == "job" && n != want[values[1]] {
			t.Errorf("runs_total{state=%q} = %d, want %d", values[1], n, want[values[1]])
		}
	})
}

// TestExecutePanicFails: a panic in a run's work is contained — the run
// fails with the error "panic: …", is counted failed, and is filed like
// any other failure.
func TestExecutePanicFails(t *testing.T) {
	core := NewCore(nil)
	x := NewIndex(core, "job", 4, func(r *Run[int]) string { return r.ID })
	r, _, err := x.Submit("key", "id", nil, func() (*Run[int], error) { return NewRun[int]("id"), nil })
	if err != nil {
		t.Fatal(err)
	}
	x.Execute("key", r, nil, nil, func(context.Context) (func(), any, error) {
		var m map[string]int
		m["boom"]++ // nil-map write: a runtime panic
		return nil, nil, nil
	})
	meta := r.Meta()
	if meta.State != StateFailed || !strings.HasPrefix(meta.Err, "panic: ") {
		t.Fatalf("panicking run settled %s %q, want failed \"panic: …\"", meta.State, meta.Err)
	}
	if n := core.runs.With("job", string(StateFailed)).Value(); n != 1 {
		t.Errorf("runs_total{state=failed} = %d, want 1", n)
	}
	if got, out, _ := x.Submit("key", "id", nil, nil); got != r || out != OutcomeHit {
		t.Error("failed run not filed in the cache")
	}
}
