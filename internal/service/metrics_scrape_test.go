package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"popproto/internal/cluster"
	"popproto/internal/obs"
	"popproto/internal/service"
	"popproto/internal/store"
)

// TestMetricsScrape drives one job through the full HTTP surface and then
// scrapes GET /metrics, asserting that the runcore, store, engine and
// front-door series all show up in valid Prometheus text format — the
// end-to-end check that the instrumentation is actually wired through
// every layer, not just registered.
func TestMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	st.Instrument(reg)
	m := service.NewManager(service.Options{Workers: 1, Store: st, Metrics: reg})
	t.Cleanup(func() { m.Close(); st.Close() })
	h := service.NewHandler(m)

	// On the agent engine, so the job hands its table to the pool.
	spec := `{"protocol": "pll", "n": 200, "engine": "agent", "seed": 7}`
	var sub submitResp
	do(t, h, "POST", "/v1/jobs", spec, http.StatusAccepted, &sub)
	deadline := time.Now().Add(60 * time.Second)
	for {
		var view service.JobView
		do(t, h, "GET", "/v1/jobs/"+sub.Job.ID, "", http.StatusOK, &view)
		if view.State == service.StateDone {
			break
		}
		if view.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job did not complete: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Hit the cache once so the hit series is nonzero too.
	do(t, h, "POST", "/v1/jobs", spec, http.StatusOK, &sub)
	if !sub.Cached {
		t.Fatal("repeat submit was not served from cache")
	}

	// A hybrid Angluin run: its no-op-dominated endgame engages geometric
	// skipping, so the payoff-controller series scrape nonzero.
	hspec := `{"protocol": "angluin", "n": 2000, "engine": "hybrid", "seed": 42}`
	do(t, h, "POST", "/v1/jobs", hspec, http.StatusAccepted, &sub)
	for {
		var view service.JobView
		do(t, h, "GET", "/v1/jobs/"+sub.Job.ID, "", http.StatusOK, &view)
		if view.State == service.StateDone {
			break
		}
		if view.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("hybrid job did not complete: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A distributed experiment through one in-process cluster worker: the
	// coordinator series (workers gauge, lease counters, merge histogram)
	// scrape nonzero. 24 replicates partition into 3 canonical ranges, so
	// the lease protocol grants and completes exactly 3 remote leases.
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	wctx, wcancel := context.WithCancel(context.Background())
	t.Cleanup(wcancel)
	wk := &cluster.Worker{Coordinator: srv.URL, ID: "scrape-worker", Workers: 2, Poll: 5 * time.Millisecond}
	go wk.Run(wctx)
	for m.Coordinator().LiveWorkers() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("cluster worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	espec := `{"protocol": "pll", "n": 200, "seed": 7, "replicates": 24}`
	var esub struct {
		Experiment service.ExperimentView `json:"experiment"`
	}
	do(t, h, "POST", "/v1/experiments", espec, http.StatusAccepted, &esub)
	for {
		var view service.ExperimentView
		do(t, h, "GET", "/v1/experiments/"+esub.Experiment.ID, "", http.StatusOK, &view)
		if view.State == service.StateDone {
			if view.Distribution == nil || view.Distribution.Mode != "cluster" {
				t.Fatalf("experiment distribution = %+v, want cluster", view.Distribution)
			}
			break
		}
		if view.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("distributed experiment did not complete: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A run is marked done before its result's group commit completes,
	// so wait for all three results to be durable before scraping.
	for m.Stats().Stored < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d results, want 3", m.Stats().Stored)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d (body: %s)", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text format", ct)
	}
	body := w.Body.String()

	// One layer per assertion: runcore cache + scheduler, store, engine,
	// run lifecycle, and the HTTP front door itself.
	for _, want := range []string{
		`popprotod_runcore_submissions_total{kind="job",outcome="miss"} 2`,
		`popprotod_runcore_submissions_total{kind="job",outcome="hit"} 1`,
		`popprotod_runcore_run_seconds_count{kind="jobs"} 2`,
		`popprotod_runcore_queue_depth{kind="jobs"} 0`,
		// 3 stored results: the two jobs plus the distributed experiment.
		`popprotod_store_fsync_seconds_count 3`,
		`popprotod_store_records 3`,
		// The PLL job ran on the agent engine, the distributed experiment
		// on the count engine.
		`popprotod_engine_runs_total{engine="agent"} 1`,
		`popprotod_engine_runs_total{engine="count"} 1`,
		`popprotod_engine_runs_total{engine="hybrid"} 1`,
		// At stabilization the Angluin census is one leader plus one
		// follower state, so the hybrid run publishes live = 2; exactly
		// one hybrid run had skip events, so the histogram count is 1.
		`popprotod_engine_live_states{engine="hybrid"} 2`,
		`popprotod_hybrid_skip_length_interactions_count 1`,
		`popprotod_runs_total{kind="job",state="done"} 2`,
		`popprotod_http_requests_total{route="POST /v1/jobs",method="POST",code="2xx"} 3`,
		`popprotod_http_request_seconds_count{route="GET /v1/jobs/{id}"}`,
		// The cluster layer: one live worker, 3 remote leases granted and
		// completed with no expiries, and one merge observation per folded
		// range. Worker traffic is labeled per route like any client's.
		`popprotod_cluster_workers 1`,
		`popprotod_cluster_leases_total{state="granted"} 3`,
		`popprotod_cluster_leases_total{state="completed"} 3`,
		`popprotod_cluster_leases_total{state="expired"} 0`,
		`popprotod_cluster_merge_seconds_count 3`,
		`popprotod_http_requests_total{route="POST /v1/cluster/leases",method="POST",code="2xx"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The process's memory series, read from the Go runtime at scrape
	// time: jobs have run, so each is nonzero.
	for _, series := range []string{"go_gc_heap_live_bytes", "go_gc_heap_allocs_bytes_total", "go_gc_cycles_total"} {
		if !regexp.MustCompile(`(?m)^` + series + ` [1-9][0-9.e+]*$`).MatchString(body) {
			t.Errorf("scrape lacks a nonzero %s", series)
		}
	}
	// The pool, read at scrape time: the agent-engine job handed its
	// table back.
	for _, series := range []string{"popprotod_pool_tables", "popprotod_pool_bytes"} {
		if !regexp.MustCompile(`(?m)^` + series + ` [1-9][0-9.e+]*$`).MatchString(body) {
			t.Errorf("scrape lacks a nonzero %s", series)
		}
	}
	if strings.Contains(body, "popprotod_engine_skip_entries_total 0") ||
		!strings.Contains(body, "popprotod_engine_skip_entries_total") {
		t.Error("scrape should report a nonzero popprotod_engine_skip_entries_total")
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", body)
	}
}
