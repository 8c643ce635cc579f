package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (layer.function), the
// span that caused it (0 for a root), and the run it belongs to (a window,
// a replicate, an HTTP run). Times are offsets from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning zero ids, so the
// workloads call it unconditionally and an untraced run does no tracing
// work beyond a nil check.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(name string, parent int, run string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Run: run,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
	return id
}

// open starts a span whose end is not known yet; close finishes it.
// Children may be recorded in between with the returned id as parent.
func (t *tracer) open(name string, parent int, run string) int {
	now := time.Now()
	return t.record(name, parent, run, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of its interval that its children
// cover (overlapping children are merged, so concurrent children are not
// subtracted twice).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// coverage returns how many nanoseconds of [lo, hi) the union of the
// given spans covers.
func coverage(kids []span, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if d := min(curHi, hi) - max(curLo, lo); d > 0 {
			covered += d
		}
	}
	for _, k := range kids {
		if k.Start > curHi {
			flush()
			curLo, curHi = k.Start, k.End
		} else if k.End > curHi {
			curHi = k.End
		}
	}
	flush()
	return covered
}
