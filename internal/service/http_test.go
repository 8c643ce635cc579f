package service_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"popproto/internal/service"
)

type submitResp struct {
	Job    service.JobView `json:"job"`
	Cached bool            `json:"cached"`
}

func newTestHandler(t *testing.T, opts service.Options) http.Handler {
	t.Helper()
	m := service.NewManager(opts)
	t.Cleanup(m.Close)
	return service.NewHandler(m)
}

// do runs one request through the handler and decodes the JSON response.
func do(t *testing.T, h http.Handler, method, target, body string, want int, out any) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != want {
		t.Fatalf("%s %s = %d, want %d (body: %s)", method, target, w.Code, want, w.Body)
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: undecodable response %q: %v", method, target, w.Body, err)
		}
	}
}

// errBody asserts the {"error": ...} shape of every failure response.
type errBody struct {
	Error string `json:"error"`
}

func TestProtocolsEndpoint(t *testing.T) {
	h := newTestHandler(t, service.Options{})
	var got struct {
		Protocols []struct {
			Key     string `json:"key"`
			Summary string `json:"summary"`
			Target  int    `json:"target"`
			MinN    int    `json:"minN"`
			Params  []struct {
				Name string `json:"name"`
				Doc  string `json:"doc"`
			} `json:"params"`
		} `json:"protocols"`
	}
	do(t, h, "GET", "/v1/protocols", "", http.StatusOK, &got)

	keys := make(map[string]bool)
	for _, p := range got.Protocols {
		keys[p.Key] = true
		if p.Summary == "" {
			t.Errorf("protocol %q has no summary", p.Key)
		}
		wantMinN := 2
		if p.Key == "pll-sym" {
			wantMinN = 3 // two symmetric agents never break their tie
		}
		if p.MinN != wantMinN {
			t.Errorf("protocol %q has minN %d, want %d", p.Key, p.MinN, wantMinN)
		}
		if p.Key == "pll" {
			if len(p.Params) == 0 || p.Params[0].Name != "m" || p.Params[0].Doc == "" {
				t.Errorf("pll params not documented: %+v", p.Params)
			}
		}
	}
	for _, want := range []string{"pll", "pll-sym", "angluin", "lottery", "maxid", "epidemic"} {
		if !keys[want] {
			t.Errorf("catalog is missing %q", want)
		}
	}
}

// TestElectionJobEndToEnd is the acceptance scenario: a PLL election at
// n=10⁵ on the count engine completes with exactly one leader, an
// identical request is answered from the cache, and the SSE trace
// replays at least two census snapshots plus a done event.
func TestElectionJobEndToEnd(t *testing.T) {
	h := newTestHandler(t, service.Options{Workers: 2})
	spec := `{"protocol": "pll", "n": 100000, "engine": "count", "seed": 42}`

	var first submitResp
	do(t, h, "POST", "/v1/jobs", spec, http.StatusAccepted, &first)
	if first.Cached {
		t.Error("first submission reported cached")
	}
	id := first.Job.ID
	if id == "" {
		t.Fatal("no job id in response")
	}

	// Poll until the job is done.
	deadline := time.Now().Add(60 * time.Second)
	var view service.JobView
	for {
		do(t, h, "GET", "/v1/jobs/"+id, "", http.StatusOK, &view)
		if view.State == service.StateDone {
			break
		}
		if view.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Result == nil {
		t.Fatal("done job has no result")
	}
	if !view.Result.Stabilized || view.Result.Leaders != 1 {
		t.Errorf("result = %+v, want stabilized with exactly one leader", view.Result)
	}
	if view.Result.ParallelTime <= 0 {
		t.Error("nonpositive parallel stabilization time")
	}

	// The identical spec must be served from the cache with 200.
	var second submitResp
	do(t, h, "POST", "/v1/jobs", spec, http.StatusOK, &second)
	if !second.Cached {
		t.Error("repeat of an identical request was not served from cache")
	}
	if second.Job.ID != id {
		t.Errorf("cached job id %q != original %q", second.Job.ID, id)
	}

	// The SSE trace replays the stored trajectory.
	r := httptest.NewRequest("GET", "/v1/jobs/"+id+"/trace", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("trace status = %d (body: %s)", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	census, done := 0, 0
	var lastData string
	for _, line := range strings.Split(w.Body.String(), "\n") {
		switch {
		case line == "event: census":
			census++
		case line == "event: done":
			done++
		case strings.HasPrefix(line, "data: "):
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if census < 2 {
		t.Errorf("trace streamed %d census snapshots, want >= 2", census)
	}
	if done != 1 {
		t.Errorf("trace streamed %d done events, want 1", done)
	}
	var final service.JobView
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatalf("last event payload %q: %v", lastData, err)
	}
	if final.State != service.StateDone {
		t.Errorf("done event carries state %q", final.State)
	}

	// The health endpoint reflects the cache hit.
	var health struct {
		Status string        `json:"status"`
		Stats  service.Stats `json:"stats"`
	}
	do(t, h, "GET", "/v1/health", "", http.StatusOK, &health)
	if health.Status != "ok" || health.Stats.Hits == 0 {
		t.Errorf("health = %+v, want ok with at least one cache hit", health)
	}
}

func TestSubmitValidationErrors(t *testing.T) {
	h := newTestHandler(t, service.Options{MaxN: 1000})
	cases := []struct {
		name, body, wantErr string
	}{
		{"malformed json", `{"protocol": `, "invalid job spec"},
		{"unknown field", `{"protocol": "pll", "n": 100, "flux": 1}`, "unknown field"},
		{"unknown protocol", `{"protocol": "paxos", "n": 100}`, "unknown protocol"},
		{"n too small", `{"protocol": "pll", "n": 1}`, "population size"},
		{"symmetric pair", `{"protocol": "pll-sym", "n": 2}`, "population size"},
		{"n over limit", `{"protocol": "pll", "n": 5000}`, "exceeds this server's count-engine limit"},
		{"bad engine", `{"protocol": "pll", "n": 100, "engine": "gpu"}`, "unknown engine"},
		{"m on m-less protocol", `{"protocol": "angluin", "n": 100, "m": 8}`, "takes no m"},
		{"m too small", `{"protocol": "pll", "n": 900, "m": 2}`, "m ≥ log₂ n"},
		{"negative budget", `{"protocol": "pll", "n": 100, "maxParallelTime": -3}`, "negative maxParallelTime"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e errBody
			do(t, h, "POST", "/v1/jobs", c.body, http.StatusBadRequest, &e)
			if !strings.Contains(e.Error, c.wantErr) {
				t.Errorf("error %q does not contain %q", e.Error, c.wantErr)
			}
		})
	}
}

func TestUnknownJob(t *testing.T) {
	h := newTestHandler(t, service.Options{})
	for _, target := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/trace"} {
		var e errBody
		do(t, h, "GET", target, "", http.StatusNotFound, &e)
		if !strings.Contains(e.Error, "no such job") {
			t.Errorf("GET %s error = %q", target, e.Error)
		}
	}
	var e errBody
	do(t, h, "DELETE", "/v1/jobs/jdeadbeef", "", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "no such job") {
		t.Errorf("DELETE error = %q", e.Error)
	}
}

func TestOversizedBody(t *testing.T) {
	h := newTestHandler(t, service.Options{})
	body := `{"protocol": "pll", "n": 100, "engine": "` + strings.Repeat("x", 2<<20) + `"}`
	var e errBody
	do(t, h, "POST", "/v1/jobs", body, http.StatusBadRequest, &e)
	if e.Error == "" {
		t.Error("oversized body produced no JSON error")
	}
}

// TestTraceStreamsLiveJob subscribes to a running job over a real HTTP
// connection, receives live census events, cancels the job, and expects
// the stream to finish with a done event carrying the canceled state.
func TestTraceStreamsLiveJob(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(srv.Close)

	// A linear-time election: long enough to observe streaming mid-run.
	job, _, err := m.Submit(service.JobSpec{Protocol: "angluin", N: 300_000, Engine: "agent"})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}

	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	census, done := 0, 0
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "event: census":
			census++
			if census == 3 {
				// Seen live streaming; now cancel and expect closure.
				m.Cancel(job.ID)
			}
		case line == "event: done":
			done++
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if census < 3 {
		t.Errorf("streamed %d census events, want >= 3", census)
	}
	if done != 1 {
		t.Errorf("streamed %d done events, want 1", done)
	}
	<-job.Done()
	if got := job.State(); got != service.StateCanceled {
		t.Errorf("job state = %s, want canceled", got)
	}
}

func TestDeleteCancelsJob(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	t.Cleanup(m.Close)
	h := service.NewHandler(m)

	job, _, err := m.Submit(service.JobSpec{Protocol: "angluin", N: 300_000, Engine: "agent"})
	if err != nil {
		t.Fatal(err)
	}
	var view service.JobView
	do(t, h, "DELETE", "/v1/jobs/"+job.ID, "", http.StatusAccepted, &view)
	if view.ID != job.ID {
		t.Errorf("DELETE returned job %q", view.ID)
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not stop after DELETE")
	}
	if job.State() != service.StateCanceled {
		t.Errorf("state = %s, want canceled", job.State())
	}
}

// TestExperimentEndToEnd: submit an ensemble over HTTP, poll to
// completion, check the aggregates, hit the cache on resubmission, and
// read the SSE aggregate stream.
func TestExperimentEndToEnd(t *testing.T) {
	h := newTestHandler(t, service.Options{Workers: 4})
	spec := `{"protocol": "pll", "n": 20000, "engine": "count", "seed": 42, "replicates": 6}`

	var first struct {
		Experiment service.ExperimentView `json:"experiment"`
		Cached     bool                   `json:"cached"`
	}
	do(t, h, "POST", "/v1/experiments", spec, http.StatusAccepted, &first)
	if first.Cached {
		t.Error("first submission reported cached")
	}
	id := first.Experiment.ID
	if id == "" {
		t.Fatal("no experiment id in response")
	}

	deadline := time.Now().Add(120 * time.Second)
	var view service.ExperimentView
	for {
		do(t, h, "GET", "/v1/experiments/"+id, "", http.StatusOK, &view)
		if view.State == service.StateDone {
			break
		}
		if view.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("experiment did not complete: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Aggregates == nil {
		t.Fatal("done experiment has no aggregates")
	}
	agg := view.Aggregates
	if agg.Replicates != 6 || agg.Stabilized != 6 {
		t.Errorf("aggregates = %+v, want 6/6 stabilized", agg)
	}
	if agg.CIHi <= agg.CILo || agg.P99 < agg.P50 {
		t.Errorf("implausible aggregate statistics: %+v", agg)
	}
	if len(agg.Survival) == 0 {
		t.Error("no survival curve in the HTTP view")
	}

	// Identical spec served from cache with 200.
	var second struct {
		Experiment service.ExperimentView `json:"experiment"`
		Cached     bool                   `json:"cached"`
	}
	do(t, h, "POST", "/v1/experiments", spec, http.StatusOK, &second)
	if !second.Cached || second.Experiment.ID != id {
		t.Errorf("resubmission not cached onto the same experiment: %+v", second)
	}

	// The SSE stream of a finished experiment replays the final
	// aggregates and closes with a done event.
	r := httptest.NewRequest("GET", "/v1/experiments/"+id+"/stream", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d (body: %s)", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	aggregates, done := 0, 0
	for _, line := range strings.Split(w.Body.String(), "\n") {
		switch line {
		case "event: aggregate":
			aggregates++
		case "event: done":
			done++
		}
	}
	if aggregates < 1 || done != 1 {
		t.Errorf("stream replayed %d aggregate and %d done events, want >=1 and 1", aggregates, done)
	}
}

func TestExperimentValidationErrors(t *testing.T) {
	h := newTestHandler(t, service.Options{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"replicates missing", `{"protocol": "pll", "n": 100}`, "replicates"},
		{"ci out of range", `{"protocol": "pll", "n": 100, "replicates": 4, "ci": 2}`, "ci target"},
		{"unknown protocol", `{"protocol": "paxos", "n": 100, "replicates": 4}`, "unknown protocol"},
		{"unknown field", `{"protocol": "pll", "n": 100, "replicates": 4, "flux": 1}`, "unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e errBody
			do(t, h, "POST", "/v1/experiments", c.body, http.StatusBadRequest, &e)
			if !strings.Contains(e.Error, c.wantErr) {
				t.Errorf("error %q does not contain %q", e.Error, c.wantErr)
			}
		})
	}

	var e errBody
	do(t, h, "GET", "/v1/experiments/edeadbeef", "", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "no such experiment") {
		t.Errorf("404 error = %q", e.Error)
	}
}

// TestExperimentStreamLive subscribes to a running experiment over a
// real HTTP connection and expects live aggregate events followed by a
// done event.
func TestExperimentStreamLive(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 2})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(srv.Close)

	exp, _, err := m.SubmitExperiment(service.ExperimentSpec{
		Protocol: "pll", N: 20_000, Seed: 9, Replicates: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/experiments/" + exp.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	aggregates, done := 0, 0
	for scanner.Scan() {
		switch scanner.Text() {
		case "event: aggregate":
			aggregates++
		case "event: done":
			done++
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if aggregates < 1 || done != 1 {
		t.Errorf("streamed %d aggregate and %d done events", aggregates, done)
	}
	<-exp.Done()
	if exp.State() != service.StateDone {
		t.Errorf("experiment state = %s", exp.State())
	}
}
