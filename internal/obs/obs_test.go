package obs

import (
	"bytes"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b bytes.Buffer
	r.WritePrometheus(&b)
	return b.String()
}

func TestCounterText(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("events_total", "Total events.")
	r.MustRegister(c)
	c.Inc()
	c.Add(41)
	want := "# HELP events_total Total events.\n# TYPE events_total counter\nevents_total 42\n"
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if c.Value() != 42 {
		t.Fatalf("Value = %d, want 42", c.Value())
	}
}

func TestCounterVecTextAndEach(t *testing.T) {
	r := NewRegistry()
	v := NewCounterVec("requests_total", "Requests.", "route", "code")
	r.MustRegister(v)
	v.With("/v1/jobs", "2xx").Add(3)
	v.With("/v1/jobs", "4xx").Inc()
	v.With("/metrics", "2xx").Add(7)
	want := `# HELP requests_total Requests.
# TYPE requests_total counter
requests_total{route="/metrics",code="2xx"} 7
requests_total{route="/v1/jobs",code="2xx"} 3
requests_total{route="/v1/jobs",code="4xx"} 1
`
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	var total uint64
	v.Each(func(_ []string, n uint64) { total += n })
	if total != 11 {
		t.Fatalf("Each sum = %d, want 11", total)
	}
}

func TestGaugeText(t *testing.T) {
	r := NewRegistry()
	g := NewGauge("in_flight", "In-flight requests.")
	r.MustRegister(g)
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(0.5)
	want := "# HELP in_flight In-flight requests.\n# TYPE in_flight gauge\nin_flight 3\n"
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestGaugeFuncText(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewGaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 12.5 }))
	want := "# HELP uptime_seconds Uptime.\n# TYPE uptime_seconds gauge\nuptime_seconds 12.5\n"
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramTextAndBoundaries(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	r.MustRegister(h)
	// Boundary semantics: le is inclusive.
	h.Observe(0.1)  // first bucket exactly
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second bucket
	h.Observe(10)   // third bucket exactly
	h.Observe(99)   // +Inf only
	want := `# HELP latency_seconds Latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 2
latency_seconds_bucket{le="1"} 3
latency_seconds_bucket{le="10"} 4
latency_seconds_bucket{le="+Inf"} 5
latency_seconds_sum 109.65
latency_seconds_count 5
`
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-109.65) > 1e-9 {
		t.Fatalf("Sum = %g, want 109.65", h.Sum())
	}
}

func TestHistogramVecText(t *testing.T) {
	r := NewRegistry()
	v := NewHistogramVec("dur_seconds", "Duration.", []float64{1}, "kind")
	r.MustRegister(v)
	v.With("jobs").Observe(0.5)
	v.With("jobs").Observe(2)
	want := `# HELP dur_seconds Duration.
# TYPE dur_seconds histogram
dur_seconds_bucket{kind="jobs",le="1"} 1
dur_seconds_bucket{kind="jobs",le="+Inf"} 2
dur_seconds_sum{kind="jobs"} 2.5
dur_seconds_count{kind="jobs"} 2
`
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := NewCounterVec("weird_total", "Weird.", "v")
	r.MustRegister(v)
	v.With("a\\b\"c\nd").Inc()
	want := "# HELP weird_total Weird.\n# TYPE weird_total counter\n" +
		`weird_total{v="a\\b\"c\nd"} 1` + "\n"
	if got := render(r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounter("x_total", "line1\nline2 \\ done"))
	got := render(r)
	if !strings.Contains(got, `# HELP x_total line1\nline2 \\ done`) {
		t.Fatalf("help not escaped:\n%s", got)
	}
}

func TestRegistrySortedByName(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounter("zzz_total", "z"))
	r.MustRegister(NewCounter("aaa_total", "a"))
	got := render(r)
	if strings.Index(got, "aaa_total") > strings.Index(got, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", got)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounter("dup_total", ""))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	r.MustRegister(NewGauge("dup_total", ""))
}

func TestInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "9abc", "a-b", "a b", "a:b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for name %q", bad)
				}
			}()
			NewCounter(bad, "")
		}()
	}
}

func TestLabelArityPanics(t *testing.T) {
	v := NewCounterVec("arity_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label arity")
		}
	}()
	v.With("only-one")
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	c.Inc()
	c.Add(5)
	_ = c.Value()
	g.Set(1)
	g.Inc()
	g.Dec()
	g.Add(2)
	_ = g.Value()
	h.Observe(1)
	_ = h.Count()
	_ = h.Sum()
	cv.With("x").Inc()
	cv.Each(func([]string, uint64) {})
	gv.With("x").Set(1)
	hv.With("x").Observe(1)
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("conc_total", "")
	cv := NewCounterVec("conc_vec_total", "", "w")
	g := NewGauge("conc_gauge", "")
	h := NewHistogram("conc_hist", "", ExpBuckets(1, 2, 8))
	hv := NewHistogramVec("conc_hist_vec", "", []float64{1, 10}, "w")
	r.MustRegister(c, cv, g, h, hv)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With(lbl).Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				hv.With(lbl).Observe(float64(i % 20))
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b bytes.Buffer
			r.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	var vecTotal uint64
	cv.Each(func(_ []string, n uint64) { vecTotal += n })
	if vecTotal != workers*iters {
		t.Fatalf("vec total = %d, want %d", vecTotal, workers*iters)
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge = %g, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*iters)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("scraped_total", "Scrapes.")
	r.MustRegister(c)
	c.Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "scraped_total 3\n") {
		t.Fatalf("body missing series:\n%s", body)
	}
}

// sample returns the value of the unlabeled series name in text.
func sample(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no series %s in:\n%s", name, text)
	return 0
}

// TestRuntimeMemory: the runtime series are read at every scrape, with
// their types, and move as the process allocates and collects.
func TestRuntimeMemory(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(RuntimeMemory()...)
	before := render(r)
	for _, typ := range []string{
		"# TYPE go_gc_heap_live_bytes gauge",
		"# TYPE go_gc_heap_allocs_bytes_total counter",
		"# TYPE go_gc_cycles_total counter",
	} {
		if !strings.Contains(before, typ) {
			t.Errorf("scrape lacks %q:\n%s", typ, before)
		}
	}
	kept := make([][]byte, 64)
	for i := range kept {
		kept[i] = make([]byte, 64<<10)
	}
	runtime.GC()
	after := render(r)
	runtime.KeepAlive(kept)
	if got := sample(t, after, "go_gc_heap_live_bytes"); got < 4<<20 {
		t.Errorf("live heap %g bytes with 4 MiB kept", got)
	}
	if a, b := sample(t, before, "go_gc_heap_allocs_bytes_total"), sample(t, after, "go_gc_heap_allocs_bytes_total"); b-a < 4<<20 {
		t.Errorf("allocated bytes went %g -> %g over a 4 MiB allocation", a, b)
	}
	if a, b := sample(t, before, "go_gc_cycles_total"), sample(t, after, "go_gc_cycles_total"); b <= a {
		t.Errorf("GC cycles went %g -> %g over a forced collection", a, b)
	}
}
