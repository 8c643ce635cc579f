package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden traces pin what GET /v1/jobs/{id}/trace sends for a table
// of finished jobs: the bytes of every census event, and the done
// event's job view without its wall-clock fields (created, started,
// finished, result.wallMillis). Clients parse these frames, and the
// replay of a cache hit is the stored trajectory, so a change to how
// snapshots are recorded, stored or streamed must leave the bytes as
// they are. Each block holds the census event count and the SHA-256 of
// their concatenated bytes (which pins all of them), the first and last
// census events in full (so a failure shows what moved), and the done
// view. Regenerate with
// `go test ./internal/service -run TestGoldenTraces -update-golden` only
// for a deliberate change of the trace format.
const goldenTracesPath = "testdata/golden_traces.txt"

func goldenTraceJobs() []JobSpec {
	return []JobSpec{
		{Protocol: "pll", N: 1000, Engine: "auto"},
		{Protocol: "pll", N: 5000, Engine: "count"},
		{Protocol: "pll-sym", N: 512, Engine: "agent"},
		// Far more live identifiers than the census cap: the frames carry
		// omittedStates and omittedAgents.
		{Protocol: "maxid", N: 500, Engine: "auto"},
		{Protocol: "angluin", N: 2000, Engine: "batch"},
		{Protocol: "pll", N: 100_000, Engine: "hybrid"},
	}
}

// goldenTraceBlock renders one finished job's trace as a golden block.
func goldenTraceBlock(t *testing.T, spec JobSpec, body string) string {
	t.Helper()
	events := strings.SplitAfter(body, "\n\n")
	if last := events[len(events)-1]; last != "" {
		t.Fatalf("%+v: trace does not end with a blank line: %q", spec, last)
	}
	events = events[:len(events)-1]
	if len(events) < 3 {
		t.Fatalf("%+v: trace has %d events, want >= 2 census + done", spec, len(events))
	}
	census, done := events[:len(events)-1], events[len(events)-1]
	sum := sha256.New()
	for _, e := range census {
		if !strings.HasPrefix(e, "event: census\ndata: ") {
			t.Fatalf("%+v: unexpected event before done: %q", spec, e)
		}
		sum.Write([]byte(e))
	}
	data, ok := strings.CutPrefix(done, "event: done\ndata: ")
	if !ok {
		t.Fatalf("%+v: trace does not end with a done event: %q", spec, done)
	}
	dec := json.NewDecoder(strings.NewReader(data))
	dec.UseNumber() // keep uint64 seeds exact
	var view map[string]any
	if err := dec.Decode(&view); err != nil {
		t.Fatalf("%+v: done view: %v", spec, err)
	}
	delete(view, "created")
	delete(view, "started")
	delete(view, "finished")
	if res, ok := view["result"].(map[string]any); ok {
		delete(res, "wallMillis")
	}
	doneJSON, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== job %s\n", specJSON)
	fmt.Fprintf(&b, "census events: %d sha256: %x\n", len(census), sum.Sum(nil))
	frame := func(e string) string {
		return strings.TrimSuffix(strings.TrimPrefix(e, "event: census\ndata: "), "\n\n")
	}
	fmt.Fprintf(&b, "first: %s\n", frame(census[0]))
	fmt.Fprintf(&b, "last: %s\n", frame(census[len(census)-1]))
	fmt.Fprintf(&b, "done: %s\n\n", doneJSON)
	return b.String()
}

// TestGoldenTraces runs the table's jobs to completion, streams each
// finished job's trace through the HTTP handler, and compares the
// rendered blocks with the committed golden file.
func TestGoldenTraces(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	defer m.Close()
	h := NewHandler(m)
	var got strings.Builder
	for _, spec := range goldenTraceJobs() {
		job, _, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		<-job.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+job.ID+"/trace", nil))
		if rec.Code != 200 {
			t.Fatalf("%+v: trace status %d: %s", spec, rec.Code, rec.Body)
		}
		got.WriteString(goldenTraceBlock(t, spec, rec.Body.String()))
	}

	path := filepath.FromSlash(goldenTracesPath)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got.String() == string(want) {
		return
	}
	gotBlocks := strings.SplitAfter(got.String(), "\n\n")
	wantBlocks := strings.SplitAfter(string(want), "\n\n")
	for i := 0; i < max(len(gotBlocks), len(wantBlocks)); i++ {
		var g, w []byte
		if i < len(gotBlocks) {
			g = []byte(gotBlocks[i])
		}
		if i < len(wantBlocks) {
			w = []byte(wantBlocks[i])
		}
		if !bytes.Equal(g, w) {
			t.Errorf("block %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
