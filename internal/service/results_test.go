package service_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/service"
	"popproto/internal/store"
	"popproto/internal/sweep"
)

// getResults issues GET /v1/results with the given query and decodes the
// response into out, failing the test on a non-wantStatus status.
func getResults(t *testing.T, srv *httptest.Server, query url.Values, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/results?" + query.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET /v1/results?%s = %d, want %d (%s)", query.Encode(), resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding response %q: %v", body, err)
		}
	}
}

// TestResultsEndpoint is the end-to-end check for GET /v1/results: a
// store populated through the real job/experiment/sweep pipelines, then
// queried over HTTP with filters, pagination, and aggregate=scaling.
func TestResultsEndpoint(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := service.NewManager(service.Options{Workers: 4, Store: st})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()

	// Populate the corpus through the real pipelines: one job, three
	// standalone experiments, and a sweep (whose cells persist as
	// experiment records alongside the sweep summary).
	job, _, err := m.Submit(service.JobSpec{Protocol: "pll", N: 500, Engine: "count", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	for _, n := range []int{500, 1000, 2000} {
		exp, _, err := m.SubmitExperiment(service.ExperimentSpec{
			Protocol: "pll", N: n, Engine: "count", Seed: 7, Replicates: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitExpDone(t, exp)
	}
	sw, _, err := m.SubmitSweep(service.SweepSpec{
		Protocols: []string{"pll"}, Ns: []int{500, 1000}, Engine: "count", Replicates: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, sw)
	// A run's result is persisted after the run is marked done, so wait
	// for all seven records (1 job, 3 experiments, 2 sweep cells, 1
	// sweep) to be durable before querying.
	for deadline := time.Now().Add(60 * time.Second); st.Len() < 7; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d records, want 7", st.Len())
		}
	}

	// The unfiltered page must serve exactly the store's current
	// contents, keyed by id.
	var all service.ResultsPage
	getResults(t, srv, url.Values{"limit": {"500"}}, http.StatusOK, &all)
	if len(all.Results) != st.Len() {
		t.Fatalf("unfiltered page has %d results, store holds %d", len(all.Results), st.Len())
	}
	if all.NextCursor != "" && len(all.Results) < 500 {
		t.Errorf("partial page carries a next cursor %q", all.NextCursor)
	}
	ids := map[string]service.ResultView{}
	for _, r := range all.Results {
		if _, dup := ids[r.ID]; dup {
			t.Fatalf("id %q served twice", r.ID)
		}
		ids[r.ID] = r
		rec, ok := st.GetByID(r.ID)
		if !ok || rec.Key != r.Key || string(rec.Kind) != r.Kind {
			t.Fatalf("result %+v does not match the stored record %+v", r, rec)
		}
	}

	// Kind filter: every result is of the requested kind, and the
	// per-kind counts partition the corpus.
	perKind := map[string]int{}
	for _, kind := range []string{"job", "experiment", "sweep"} {
		var page service.ResultsPage
		getResults(t, srv, url.Values{"kind": {kind}, "limit": {"500"}}, http.StatusOK, &page)
		for _, r := range page.Results {
			if r.Kind != kind {
				t.Errorf("kind=%s page served a %q record (%s)", kind, r.Kind, r.Key)
			}
		}
		perKind[kind] = len(page.Results)
	}
	if got := perKind["job"] + perKind["experiment"] + perKind["sweep"]; got != len(all.Results) {
		t.Errorf("kind pages sum to %d records, want %d (%v)", got, len(all.Results), perKind)
	}
	if perKind["experiment"] != 5 {
		t.Errorf("%d experiment records, want 5 (3 standalone + 2 sweep cells)", perKind["experiment"])
	}
	if perKind["sweep"] != 1 {
		t.Errorf("%d sweep records, want 1", perKind["sweep"])
	}

	// Protocol filter: "pll" matches everything (the sweep via its
	// protocol axis); an unknown protocol matches nothing.
	var page service.ResultsPage
	getResults(t, srv, url.Values{"protocol": {"pll"}, "limit": {"500"}}, http.StatusOK, &page)
	if len(page.Results) != len(all.Results) {
		t.Errorf("protocol=pll matched %d of %d records", len(page.Results), len(all.Results))
	}
	getResults(t, srv, url.Values{"kind": {"sweep"}, "protocol": {"pll"}}, http.StatusOK, &page)
	if len(page.Results) != 1 {
		t.Errorf("sweep not matched through its protocols axis (%d results)", len(page.Results))
	}
	getResults(t, srv, url.Values{"protocol": {"nope"}}, http.StatusOK, &page)
	if len(page.Results) != 0 {
		t.Errorf("protocol=nope matched %d records", len(page.Results))
	}

	// Engine filter: every canonical spec names engine "count".
	getResults(t, srv, url.Values{"kind": {"experiment"}, "engine": {"count"}, "limit": {"500"}}, http.StatusOK, &page)
	if len(page.Results) != perKind["experiment"] {
		t.Errorf("engine=count matched %d of %d experiments", len(page.Results), perKind["experiment"])
	}
	getResults(t, srv, url.Values{"engine": {"batch"}}, http.StatusOK, &page)
	if len(page.Results) != 0 {
		t.Errorf("engine=batch matched %d records", len(page.Results))
	}

	// n range: exactly the n=1000 experiments (one standalone, one
	// sweep cell); the sweep record matches through its ns axis.
	getResults(t, srv, url.Values{
		"kind": {"experiment"}, "n_min": {"1000"}, "n_max": {"1000"},
	}, http.StatusOK, &page)
	if len(page.Results) != 2 {
		t.Errorf("n range [1000, 1000] matched %d experiments, want 2", len(page.Results))
	}
	for _, r := range page.Results {
		var spec service.ExperimentSpec
		if err := json.Unmarshal(r.Spec, &spec); err != nil || spec.N != 1000 {
			t.Errorf("n-filtered result %s has n=%d (%v)", r.Key, spec.N, err)
		}
	}
	getResults(t, srv, url.Values{"kind": {"sweep"}, "n_min": {"900"}, "n_max": {"1100"}}, http.StatusOK, &page)
	if len(page.Results) != 1 {
		t.Errorf("sweep not matched through its ns axis (%d results)", len(page.Results))
	}

	// Pagination: limit=2 pages walk the whole corpus exactly once.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(all.Results) {
			t.Fatal("pagination did not terminate")
		}
		q := url.Values{"limit": {"2"}}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		var pg service.ResultsPage
		getResults(t, srv, q, http.StatusOK, &pg)
		for _, r := range pg.Results {
			walked = append(walked, r.ID)
		}
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if len(walked) != len(all.Results) {
		t.Fatalf("pagination walked %d records, want %d", len(walked), len(all.Results))
	}
	seen := map[string]bool{}
	for _, id := range walked {
		if seen[id] {
			t.Fatalf("pagination served id %q twice", id)
		}
		seen[id] = true
		if _, ok := ids[id]; !ok {
			t.Fatalf("pagination served unknown id %q", id)
		}
	}

	// aggregate=scaling must equal an independent fit over the same
	// records fetched through the plain query path.
	var sv service.ScalingView
	getResults(t, srv, url.Values{"aggregate": {"scaling"}}, http.StatusOK, &sv)
	if sv.Aggregate != "scaling" {
		t.Errorf("aggregate = %q", sv.Aggregate)
	}
	if sv.Experiments != perKind["experiment"] {
		t.Errorf("scaling saw %d experiments, want %d", sv.Experiments, perKind["experiment"])
	}
	var expPage service.ResultsPage
	getResults(t, srv, url.Values{"kind": {"experiment"}, "limit": {"500"}}, http.StatusOK, &expPage)
	var outcomes []sweep.Outcome
	for _, r := range expPage.Results {
		var spec service.ExperimentSpec
		var agg ensemble.Aggregates
		if err := json.Unmarshal(r.Spec, &spec); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(r.Data, &agg); err != nil {
			t.Fatal(err)
		}
		eng, err := pp.ParseEngine(spec.Engine)
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, sweep.Outcome{
			Cell:       sweep.Cell{Protocol: spec.Protocol, N: spec.N, M: spec.M, Engine: eng},
			Aggregates: agg,
		})
	}
	sort.SliceStable(outcomes, func(i, j int) bool {
		a, b := outcomes[i], outcomes[j]
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.M != b.M {
			return a.M < b.M
		}
		return a.N < b.N
	})
	want := sweep.Summarize(outcomes).Fits
	if !reflect.DeepEqual(sv.Fits, want) {
		t.Errorf("scaling fits = %+v, want %+v", sv.Fits, want)
	}
	if len(sv.Fits) != 1 || sv.Fits[0].Protocol != "pll" || sv.Fits[0].Points != 5 {
		t.Errorf("fits = %+v, want one pll fit over 5 points", sv.Fits)
	}

	// The scaling fit respects the filters: restricting n drops points.
	var narrow service.ScalingView
	getResults(t, srv, url.Values{"aggregate": {"scaling"}, "n_max": {"1000"}}, http.StatusOK, &narrow)
	if narrow.Experiments != 4 {
		t.Errorf("n_max=1000 scaling saw %d experiments, want 4", narrow.Experiments)
	}

	// Error taxonomy.
	for name, q := range map[string]url.Values{
		"bad kind":        {"kind": {"banana"}},
		"bad limit":       {"limit": {"-1"}},
		"bad n_min":       {"n_min": {"many"}},
		"bad aggregate":   {"aggregate": {"median"}},
		"bad cursor":      {"cursor": {"not a cursor"}},
		"scaling on jobs": {"aggregate": {"scaling"}, "kind": {"job"}},
	} {
		getResults(t, srv, q, http.StatusBadRequest, nil)
		_ = name
	}
}

// TestResultsWithoutStore: a server running without -store answers 404,
// not an empty page, so clients can tell "no corpus" from "no matches".
func TestResultsWithoutStore(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()
	getResults(t, srv, url.Values{}, http.StatusNotFound, nil)
	getResults(t, srv, url.Values{"aggregate": {"scaling"}}, http.StatusNotFound, nil)
}
