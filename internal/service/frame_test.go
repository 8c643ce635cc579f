package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"popproto/internal/pp"
	"popproto/internal/registry"
)

// marshalSnapshot is the reference encoding of el's current snapshot:
// the full census, sorted and cut at censusCap, marshaled by
// encoding/json.
func marshalSnapshot(t *testing.T, el registry.Election) []byte {
	t.Helper()
	entries := registry.SortedCensus(el.Census())
	snap := Snapshot{
		Step:         el.Steps(),
		ParallelTime: el.ParallelTime(),
		Leaders:      el.Leaders(),
		Census:       map[string]int{},
	}
	for i, e := range entries {
		if i < censusCap {
			snap.Census[e.State] = e.Count
		} else {
			snap.OmittedStates++
			snap.OmittedAgents += e.Count
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFrameMatchesMarshal: on every catalog entry and engine, at
// checkpoints through a run, a frame renders byte for byte what
// json.Marshal of the same snapshot produces. It renders the same bytes
// again after the run's pooled state table has served later runs that
// rendered names the first run never met.
func TestFrameMatchesMarshal(t *testing.T) {
	const n = 700
	laterNames := 0
	for _, entry := range registry.Entries() {
		for _, engine := range pp.Engines() {
			spec := registry.Spec{Protocol: entry.Key, N: n, Engine: engine, Seed: 3}
			el, err := registry.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			var enc frameEncoder
			var frames []Frame
			var wants [][]byte
			met := map[string]bool{}
			for checkpoint := 0; checkpoint < 6; checkpoint++ {
				if checkpoint > 0 {
					el.RunSteps(uint64(n)<<(checkpoint-1) + 13) // non-integer parallel times too
				}
				frame := enc.encode(el, censusCap)
				top, _, _ := el.TopCensus(censusCap)
				for _, e := range top {
					met[e.State] = true
				}
				want := marshalSnapshot(t, el)
				if got := frame.AppendJSON(nil); string(got) != string(want) {
					t.Fatalf("%s/%s at step %d:\n got  %s\n want %s",
						entry.Key, engine, el.Steps(), got, want)
				}
				if frame.Step != el.Steps() {
					t.Fatalf("frame step %d, election at %d", frame.Step, el.Steps())
				}
				frames, wants = append(frames, frame), append(wants, want)
			}
			el.Release()

			for seed := uint64(4); seed < 8; seed++ {
				spec.Seed = seed
				later, err := registry.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				for checkpoint := 0; checkpoint < 6; checkpoint++ {
					later.RunSteps(uint64(n) << checkpoint)
					top, _, _ := later.TopCensus(censusCap)
					for _, e := range top {
						if !met[e.State] {
							laterNames++
						}
					}
				}
				later.Release()
			}
			for i, frame := range frames {
				if got := frame.AppendJSON(nil); string(got) != string(wants[i]) {
					t.Fatalf("%s/%s frame %d after later runs:\n got  %s\n want %s",
						entry.Key, engine, i, got, wants[i])
				}
			}
		}
	}
	if laterNames == 0 {
		t.Fatal("the later runs rendered no name the first runs had not met")
	}
}

// TestAppendJSONAllocs: rendering a frame into a buffer that has room
// for it allocates nothing, so a stream renders its events in place.
func TestAppendJSONAllocs(t *testing.T) {
	el, err := registry.New(registry.Spec{Protocol: "maxid", N: 2000, Engine: pp.EngineCount, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	el.RunSteps(3 * 2000)
	var enc frameEncoder
	frame := enc.encode(el, censusCap)
	buf := frame.AppendJSON(nil)
	allocs := testing.AllocsPerRun(50, func() { buf = frame.AppendJSON(buf[:0]) })
	if allocs != 0 {
		t.Errorf("%.1f allocations per render into a warm buffer, want 0", allocs)
	}
}

// TestAppendJSONFloat: the float format is encoding/json's, at the
// switches between plain and exponent form and on both sides of them.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{
		0, 1, 10.536, 12.2486, 1.0 / 3, 123456789.125, 1e20, 1e21, 1.5e21,
		1e-6, 9.99e-7, 1e-7, 1.25e-10, 5e-324, math.MaxFloat64, -2.5, -1e-7, -1e22,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// TestWarmFrameAllocs: once a run's states have been rendered, recording
// a snapshot — TopCensus plus the encode — allocates the frame's bytes
// and nothing else, however many states are live.
func TestWarmFrameAllocs(t *testing.T) {
	for _, spec := range []registry.Spec{
		{Protocol: "pll", N: 1000, Engine: pp.EngineAgent, Seed: 1},
		{Protocol: "pll", N: 100_000, Engine: pp.EngineHybrid, Seed: 1},
		// Hundreds of live identifiers, far past the census cap.
		{Protocol: "maxid", N: 2000, Engine: pp.EngineCount, Seed: 1},
	} {
		el, err := registry.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		el.RunSteps(3 * uint64(spec.N))
		var enc frameEncoder
		enc.encode(el, censusCap)
		allocs := testing.AllocsPerRun(50, func() { enc.encode(el, censusCap) })
		if allocs != 1 {
			t.Errorf("%s/%s with %d live states: %.1f allocations per warm frame, want 1 (the frame)",
				spec.Protocol, spec.Engine, el.LiveStates(), allocs)
		}
	}
}

// countingWriter counts the writes and flushes a stream makes.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

func (w *countingWriter) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
}

// TestTraceWritesCoalesce: the replay goes out in one write and one
// flush, and live events already queued when the stream takes one — here
// all of them, then the close — go out with it under one more.
func TestTraceWritesCoalesce(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	// A record of n = 1, no leaders, no omitted states and an empty census.
	frame := func(step int) Frame {
		return Frame{Step: uint64(step), record: []byte{1, 0, 0, 0}}
	}
	live := make(chan Frame, 3)
	for step := 2; step < 5; step++ {
		live <- frame(step)
	}
	close(live)
	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	streamSSE(m, w, httptest.NewRequest("GET", "/", nil), "census",
		[]Frame{frame(0), frame(1)}, live, func() {}, appendFrame, func() any { return "view" })

	var want strings.Builder
	for step := 0; step < 5; step++ {
		fmt.Fprintf(&want, "event: census\ndata: %s\n\n", frame(step).AppendJSON(nil))
	}
	want.WriteString("event: done\ndata: \"view\"\n\n")
	if got := w.Body.String(); got != want.String() {
		t.Fatalf("stream:\n%s\nwant:\n%s", got, want.String())
	}
	if w.writes != 2 || w.flushes != 2 {
		t.Errorf("%d writes and %d flushes, want 2 and 2 (replay, then the queued events and done)",
			w.writes, w.flushes)
	}
}

// TestStreamWhileRecording: subscribers render a running job's frames on
// their own goroutines, directly and through the trace endpoint, while
// its worker records frames that quote names the run had not met. Run
// it under -race: a frame must never read the name slice past the
// prefix it was recorded with.
func TestStreamWhileRecording(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	// The first job holds the one worker, so the second is still queued
	// when it is subscribed to and all of its frames arrive live.
	if _, _, err := m.Submit(JobSpec{Protocol: "pll", N: 2000, Engine: "count", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	job, _, err := m.Submit(JobSpec{Protocol: "maxid", N: n, Engine: "count", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	const subscribers = 3
	errs := make(chan error, subscribers+1)
	grew := make(chan int, subscribers)
	for range subscribers {
		replay, live, cancel := job.Subscribe()
		go func() {
			defer cancel()
			var buf []byte
			names, newNames := -1, 0
			render := func(f Frame) error {
				buf = f.AppendJSON(buf[:0])
				if names >= 0 && len(f.names) > names {
					newNames += len(f.names) - names
				}
				names = len(f.names)
				return coversAgents(buf, n)
			}
			for _, f := range replay {
				if err := render(f); err != nil {
					errs <- err
					return
				}
			}
			for f := range live {
				if err := render(f); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
			grew <- newNames
		}()
	}
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + job.ID + "/trace")
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		errs <- checkTrace(resp.Body, n)
	}()
	for range subscribers + 1 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for range subscribers {
		if newNames := <-grew; newNames == 0 {
			t.Error("no frame a subscriber rendered quoted a name the run had not met before it")
		}
	}
}

// coversAgents checks that data parses as a Snapshot whose census,
// omitted agents included, covers n agents.
func coversAgents(data []byte, n int) error {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	total := snap.OmittedAgents
	for _, c := range snap.Census {
		total += c
	}
	if total != n {
		return fmt.Errorf("census covers %d agents, want %d: %s", total, n, data)
	}
	return nil
}

// checkTrace reads a trace stream to its end and checks every census
// event with coversAgents.
func checkTrace(body io.Reader, n int) error {
	data, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	for _, event := range strings.Split(string(data), "\n\n") {
		if data, ok := strings.CutPrefix(event, "event: census\ndata: "); ok {
			if err := coversAgents([]byte(data), n); err != nil {
				return err
			}
		}
	}
	return nil
}

// sharedNamesRuns counts the runs of TestSharedNamesWhileRendering, each
// of which takes a population size no earlier run in the process used,
// so that its first job starts on a fresh state table.
var sharedNamesRuns atomic.Int32

// TestSharedNamesWhileRendering: two jobs of one spec run back to back
// on one pooled state table. The first is cut short after two units of
// parallel time, so the second, a whole election, appends names the
// first never met to the quoted names the first job's frames point
// into, while a subscriber and the trace endpoint render the first
// job's frames on their own goroutines. Run it under -race: a frame must never read past
// the prefix of the shared names it was recorded with, and nothing below
// that prefix is written again.
func TestSharedNamesWhileRendering(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	n := 1000 + int(sharedNamesRuns.Add(1))
	spec := JobSpec{Protocol: "pll", N: n, Engine: "agent", Seed: 1, MaxParallelTime: 2}
	first, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()

	stop := make(chan struct{})
	errs := make(chan error, 2)
	go func() { // a subscriber rendering the first job's frames over and over
		replay, _, cancel := first.Subscribe()
		defer cancel()
		var buf []byte
		for {
			for _, f := range replay {
				buf = f.AppendJSON(buf[:0])
				if err := coversAgents(buf, n); err != nil {
					errs <- err
					return
				}
			}
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
		}
	}()
	go func() { // the trace endpoint replaying the first job, over and over
		for {
			resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + first.ID + "/trace")
			if err != nil {
				errs <- err
				return
			}
			err = checkTrace(resp.Body, n)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
		}
	}()

	// The first job handed its table back before it was done, so the
	// second, of the same spec, borrows it.
	spec.MaxParallelTime = 0
	second, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-second.Done()
	close(stop)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	longest := func(j *Job) []string {
		replay, _, cancel := j.Subscribe()
		defer cancel()
		var names []string
		for _, f := range replay {
			if len(f.names) > len(names) {
				names = f.names
			}
		}
		return names
	}
	firstNames, secondNames := longest(first), longest(second)
	if len(secondNames) <= len(firstNames) {
		t.Fatalf("the second job's frames name %d states, the first's %d: it met no new name",
			len(secondNames), len(firstNames))
	}
	if !slices.Equal(secondNames[:len(firstNames)], firstNames) {
		t.Fatal("the second job's names do not extend the first's: it did not run on the first job's table")
	}
}

// BenchmarkFrameEncode times recording one frame — TopCensus's selection
// plus the encode — on a warm run: PLL's O(log n) states on the agent
// engine and at n = 10⁵ on the hybrid engine, MaxID's hundreds of live
// identifiers on the count engine, and a spilled MaxID agent run, whose
// states carry no table index and are rendered on every call.
func BenchmarkFrameEncode(b *testing.B) {
	for _, bc := range []struct {
		name string
		spec registry.Spec
	}{
		{"pll-agent-1000", registry.Spec{Protocol: "pll", N: 1000, Engine: pp.EngineAgent, Seed: 1}},
		{"pll-hybrid-100000", registry.Spec{Protocol: "pll", N: 100_000, Engine: pp.EngineHybrid, Seed: 1}},
		{"maxid-count-2000", registry.Spec{Protocol: "maxid", N: 2000, Engine: pp.EngineCount, Seed: 1}},
		{"maxid-agent-2000-spilled", registry.Spec{Protocol: "maxid", N: 2000, Engine: pp.EngineAgent, Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			el, err := registry.New(bc.spec)
			if err != nil {
				b.Fatal(err)
			}
			defer el.Release()
			el.RunSteps(3 * uint64(bc.spec.N))
			var enc frameEncoder
			enc.encode(el, censusCap)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFrame = enc.encode(el, censusCap)
			}
		})
	}
}

// benchFrame keeps BenchmarkFrameEncode's frames live.
var benchFrame Frame
