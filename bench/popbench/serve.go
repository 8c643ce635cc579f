package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"popproto/internal/pp"
	"popproto/internal/registry"
)

// The serve workloads drive a real popprotod over HTTP with serveClients
// closed-loop clients: a client sends its next request only after the
// previous run is done, and each holds at most one connection. A run is
// timed from the moment its POST is sent until the SSE "done" event
// arrives; a run answered from the cache ends with its POST.
const (
	serveClients = 2
	// bootRuns boots of popprotod are timed per untraced pass:
	// bootsBefore before the load, the last of which serves it, and the
	// rest after it. Boots a fraction of a second apart took alike long,
	// and runs a few seconds apart differed by up to half, so spreading
	// the samples keeps one slow moment of the host from moving them all.
	bootRuns    = 7
	bootsBefore = 4
	// minClientRuns runs per client always complete in each half, past
	// the budget if need be; they are the ones the digest covers.
	minClientRuns = 10
	// replayJobs served jobs are replayed in-process by a traced pass.
	replayJobs = 16

	writeN = 1000 // serve-write job size (auto resolves to agent)

	// serve-mixed draws every seed from a pool of mixedPool, so specs
	// repeat and the cache answers most submissions. The pool is redrawn
	// every mixedEpoch requests of a client, so misses keep arriving at a
	// steady rate instead of dying out as the run goes on.
	mixedPool  = 24
	mixedEpoch = 500
	// The second half re-issues, every reissueEvery-th request, one of
	// the specs of each client's first subsetSpan first-half requests.
	reissueEvery = 4
	subsetSpan   = 8
)

// serve-mixed sizes: jobs small enough that even their BackUp tails end
// before a typical experiment does, so the slowest percent of runs are
// experiment misses (sums of eight elections, not one heavy-tailed one).
var (
	mixedJobNs     = []int{1 << 8, 1 << 9}
	mixedExpN      = 1 << 10
	mixedExpR      = 8
	mixedSweepNs   = []int{1 << 8, 1 << 10}
	mixedSweepR    = 4
	volatileFields = map[string]bool{
		// wall times, timestamps, and what a restored run no longer
		// carries (its trajectory length, where its ranges ran)
		"wallMillis": true, "created": true, "started": true, "finished": true,
		"restored": true, "distribution": true, "snapshots": true,
	}
)

// request is one submission: its kind ("job", "experiment", "sweep") and
// JSON body, which is also its identity.
type request struct {
	kind    string
	body    string
	reissue bool // a serve-mixed re-issue of a first-half spec
}

func jobRequest(n int, seed uint64) request {
	return request{kind: "job", body: fmt.Sprintf(`{"protocol":"pll","n":%d,"engine":"auto","seed":%d}`, n, seed)}
}

// endpoints of each kind: submit path, response key, SSE suffix.
var endpoints = map[string]struct{ path, key, stream string }{
	"job":        {"/v1/jobs", "job", "/trace"},
	"experiment": {"/v1/experiments", "experiment", "/stream"},
	"sweep":      {"/v1/sweeps", "sweep", "/stream"},
}

// ---- popprotod lifecycle ---------------------------------------------------

// server is one popprotod process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *logWatcher
	done chan error // receives cmd.Wait's result
	hc   *http.Client
}

// logWatcher collects popprotod's log and reports the address it
// listens on.
type logWatcher struct {
	mu    sync.Mutex
	buf   []byte
	lines []string
	addr  chan string
}

func (w *logWatcher) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, b...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, addr, ok := strings.Cut(line, "popprotod listening on "); ok {
			select {
			case w.addr <- strings.TrimSpace(addr):
			default:
			}
		}
		w.lines = append(w.lines, line)
		if len(w.lines) > 20 {
			w.lines = w.lines[1:]
		}
	}
	return len(b), nil
}

func (w *logWatcher) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.lines, "\n")
}

// startServer boots popprotod on store and waits until /v1/health answers.
func (p *pass) startServer(store string) (*server, error) {
	lw := &logWatcher{addr: make(chan string, 1)}
	cmd := command(p.popprotod, "-addr", "127.0.0.1:0", "-store", store)
	cmd.Stderr = lw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start popprotod: %w", err)
	}
	s := &server{cmd: cmd, log: lw, done: make(chan error, 1), hc: &http.Client{Timeout: 10 * time.Second}}
	go func() { s.done <- cmd.Wait() }()
	select {
	case addr := <-lw.addr:
		s.base = "http://" + addr
	case err := <-s.done:
		return nil, fmt.Errorf("popprotod exited during boot (%v):\n%s", err, lw.tail())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("popprotod did not listen within 60s:\n%s", lw.tail())
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := s.hc.Get(s.base + "/v1/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("popprotod health never answered: %v", err)
		}
	}
}

// stop sends SIGTERM (popprotod drains and closes its store), waits for
// the exit, and returns the process's peak RSS in KiB.
func (s *server) stop() (maxRSSKiB int64, err error) {
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err = <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-s.done
		if err == nil {
			err = errors.New("popprotod ignored SIGTERM")
		}
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSSKiB = ru.Maxrss
	}
	if err != nil {
		err = fmt.Errorf("popprotod exit: %w\n%s", err, s.log.tail())
	}
	return maxRSSKiB, err
}

// cpuSeconds reads the server's user+system CPU time from /proc (0 for
// a server this process did not start).
func (s *server) cpuSeconds() float64 {
	if s.cmd == nil {
		return 0
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields overall, in clock ticks of 1/100 s.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// warmupSeed seeds the one warm-up job of every boot: the same election
// each time, and one without a BackUp tail, so that only set-up cost
// varies between samples (seeds 3 and 7, say, add a 40 ms tail).
const warmupSeed = 1

// boot starts popprotod on store and completes the warm-up job; the
// returned duration, process start to warm-up done, is one set-up sample.
func (p *pass) boot(store string) (*server, float64, error) {
	start := time.Now()
	s, err := p.startServer(store)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(s.base, nil)
	out := c.do(jobRequest(writeN, warmupSeed), "warm-up")
	c.hc.CloseIdleConnections()
	if out.err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("warm-up job: %w", out.err)
	}
	return s, time.Since(start).Seconds(), nil
}

// freshBoots boots popprotod k times on fresh stores of their own, so
// every sample does the same work, and stops each again; a traced pass
// takes no samples.
func (p *pass) freshBoots(k int) error {
	for i := 0; i < k && p.tr == nil; i++ {
		s, d, err := p.boot(filepath.Join(p.work, fmt.Sprintf("boot-%d", len(p.setup))))
		if err != nil {
			return err
		}
		p.setup = append(p.setup, d)
		if _, err := s.stop(); err != nil {
			return err
		}
	}
	return nil
}

// bootServing takes the set-up samples due before the load and returns
// popprotod booted on store, serving; that boot is a sample too.
func (p *pass) bootServing(store string) (*server, error) {
	if err := p.freshBoots(bootsBefore - 1); err != nil {
		return nil, err
	}
	s, d, err := p.boot(store)
	if err != nil {
		return nil, err
	}
	p.setup = append(p.setup, d)
	return s, nil
}

// ---- clients -----------------------------------------------------------

// client is one closed-loop client with its own single connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   time.Minute, // a run here takes well under a second
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		tr: tr,
	}
}

// outcome is one finished run as the client saw it.
type outcome struct {
	latency, submit time.Duration
	status          int
	cached          bool
	view            json.RawMessage // the final run view
	err             error
}

// do submits req, waits for the run to finish, and returns the final view.
func (c *client) do(req request, run string) outcome {
	ep := endpoints[req.kind]
	rid := c.tr.open("serve.run", 0, run)
	defer c.tr.close(rid)
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+ep.path, "application/json", strings.NewReader(req.body))
	if err != nil {
		return outcome{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{status: resp.StatusCode, submit: time.Since(t0)}
	c.tr.record("http.submit", rid, run, t0, t0.Add(out.submit))
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		out.err = fmt.Errorf("POST %s: %d %s", ep.path, resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	var sub map[string]json.RawMessage
	if err := json.Unmarshal(data, &sub); err != nil {
		out.err = fmt.Errorf("POST %s: %w", ep.path, err)
		return out
	}
	out.cached = string(sub["cached"]) == "true"
	if out.cached {
		out.view = sub[ep.key]
		out.latency = out.submit
		return out
	}
	var ref struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub[ep.key], &ref); err != nil || ref.ID == "" {
		out.err = fmt.Errorf("POST %s: no run id in %s", ep.path, data)
		return out
	}
	a0 := time.Now()
	out.view, out.err = c.awaitDone(ep.path + "/" + ref.ID + ep.stream)
	c.tr.record("http.await", rid, run, a0, time.Now())
	out.latency = time.Since(t0)
	return out
}

// awaitDone reads the run's server-sent events until "done" and returns
// that event's data: the run's final view.
func (c *client) awaitDone(path string) (json.RawMessage, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("GET %s: stream ended before done: %w", path, err)
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case event == "done" && bytes.HasPrefix(line, []byte("data: ")):
			_, _ = io.Copy(io.Discard, r) // let the connection be reused
			return line[len("data: "):], nil
		}
	}
}

// runView is the part of a run view the correctness checks read.
type runView struct {
	State  string `json:"state"`
	Result *struct {
		Stabilized bool   `json:"stabilized"`
		Leaders    int    `json:"leaders"`
		Steps      uint64 `json:"steps"`
	} `json:"result"`
	Aggregates *aggView `json:"aggregates"`
	Cells      []struct {
		State      string   `json:"state"`
		Aggregates *aggView `json:"aggregates"`
	} `json:"cells"`
}

type aggView struct {
	Replicates int `json:"replicates"`
	Requested  int `json:"requested"`
	Stabilized int `json:"stabilized"`
}

// verify checks a finished run: done, and every election in it
// stabilized with exactly one leader.
func verify(kind string, raw json.RawMessage) error {
	var v runView
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("bad %s view: %w", kind, err)
	}
	if v.State != "done" {
		return fmt.Errorf("%s ended %q", kind, v.State)
	}
	allStable := func(a *aggView) bool {
		return a != nil && a.Replicates > 0 && a.Replicates == a.Requested && a.Stabilized == a.Replicates
	}
	switch kind {
	case "job":
		if v.Result == nil || !v.Result.Stabilized || v.Result.Leaders != 1 {
			return fmt.Errorf("job result %s", raw)
		}
	case "experiment":
		if !allStable(v.Aggregates) {
			return fmt.Errorf("experiment aggregates %+v", v.Aggregates)
		}
	case "sweep":
		for i, c := range v.Cells {
			if c.State != "done" || !allStable(c.Aggregates) {
				return fmt.Errorf("sweep cell %d %s %+v", i, c.State, c.Aggregates)
			}
		}
	}
	return nil
}

// normalize renders a run view without its volatile fields, for byte
// comparison and the digest.
func normalize(raw json.RawMessage) string {
	var v any
	if json.Unmarshal(raw, &v) != nil {
		return string(raw)
	}
	var strip func(any)
	strip = func(x any) {
		switch t := x.(type) {
		case map[string]any:
			for k, e := range t {
				if volatileFields[k] {
					delete(t, k)
				} else {
					strip(e)
				}
			}
		case []any:
			for _, e := range t {
				strip(e)
			}
		}
	}
	strip(v)
	out, _ := json.Marshal(v) // map keys marshal sorted
	return string(out)
}

// ---- load phases -------------------------------------------------------

// served is one run of a load phase.
type served struct {
	client, i int
	req       request
	out       outcome
	ok        bool
	norm      string // normalized view, when ok
}

// phase is one measured load phase against one server.
type phase struct {
	runs          []served
	wall          time.Duration
	cpu           float64 // server CPU seconds over the phase
	before, after promSnapshot
}

// load runs serveClients closed-loop clients against s until the budget
// is spent (each completing at least minClientRuns runs); next gives
// client c's i-th request.
func (p *pass) load(s *server, budget time.Duration, tag string, next func(c, i int) request) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = scrape(s.hc, s.base); err != nil {
		return nil, err
	}
	cpu0 := s.cpuSeconds()
	start := time.Now()
	deadline := start.Add(budget)
	perClient := make([][]served, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(s.base, p.tr)
			defer cl.hc.CloseIdleConnections()
			for i := 0; i < minClientRuns || time.Now().Before(deadline); i++ {
				req := next(c, i)
				run := ""
				if p.tr != nil {
					run = fmt.Sprintf("%s-c%d-%d", tag, c, i)
				}
				out := cl.do(req, run)
				if out.err == nil {
					out.err = verify(req.kind, out.view)
				}
				r := served{client: c, i: i, req: req, out: out, ok: out.err == nil}
				if r.ok {
					r.norm = normalize(out.view)
				}
				perClient[c] = append(perClient[c], r)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = s.cpuSeconds() - cpu0
	for _, runs := range perClient {
		for _, r := range runs {
			p.attempted++
			if !p.check(r.ok, "%s client %d run %d (%s %s): %v", tag, r.client, r.i, r.req.kind, r.req.body, r.out.err) {
				p.failed++
			}
			if r.i < minClientRuns && r.ok {
				p.digestLine("%s c%d %d %s", tag, r.client, r.i, r.norm)
			}
		}
		ph.runs = append(ph.runs, runs...)
	}
	if ph.after, err = scrape(s.hc, s.base); err != nil {
		return nil, err
	}
	return ph, nil
}

// finishServe fills the end-to-end metrics of a serve pass from its phases.
func (p *pass) finishServe(maxRSSKiB int64, phases ...*phase) {
	var lat []float64
	var wall time.Duration
	runs := 0
	for _, ph := range phases {
		wall += ph.wall
		for _, r := range ph.runs {
			if r.ok {
				runs++
				lat = append(lat, ms(r.out.latency))
			}
		}
	}
	p.latencyMetrics(runs, wall, lat, 0.99)
	p.metrics["peak_rss_mib"] = float64(maxRSSKiB) / 1024
}

// ---- workloads ------------------------------------------------------------

// runServeWrite: every submission is a new n=1000 PLL job (unique seed),
// so the cache never answers and every run crosses HTTP, admission, the
// engine and the store's group commit.
func runServeWrite(p *pass) error {
	store := filepath.Join(p.work, "store")
	s, err := p.bootServing(store)
	if err != nil {
		return err
	}
	ph, err := p.load(s, p.budget, "w", func(c, i int) request {
		return jobRequest(writeN, mix(p.seed, 3, uint64(c), uint64(i)))
	})
	rss, stopErr := s.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	if err := p.freshBoots(bootRuns - bootsBefore); err != nil {
		return err
	}
	for _, r := range ph.runs {
		if r.ok && !p.check(!r.out.cached, "w client %d run %d: a new job was answered from the cache", r.client, r.i) {
			p.failed++
		}
	}
	p.finishServe(rss, ph)
	if p.tr != nil {
		p.serveLayers(p.setup[len(p.setup)-1], ph.before, ph)
	}
	return nil
}

// mixedRequest is client c's i-th request of a half: 70% jobs, 20%
// experiments, 10% sweeps, every seed drawn from the pool of the
// request's epoch. Both clients share each epoch's pool, so they answer
// each other's requests from the cache and join each other's runs.
func mixedRequest(seed uint64, half, c, i int) request {
	r := mix(seed, 4, uint64(half), uint64(c), uint64(i))
	s := mix(seed, 5, uint64(half), uint64(i/mixedEpoch), (r>>8)%mixedPool)
	switch k := r % 10; {
	case k < 7:
		return jobRequest(mixedJobNs[(r>>16)&1], s)
	case k < 9:
		return request{kind: "experiment", body: fmt.Sprintf(`{"protocol":"pll","n":%d,"engine":"auto","seed":%d,"replicates":%d}`,
			mixedExpN, s, mixedExpR)}
	default:
		return request{kind: "sweep", body: fmt.Sprintf(`{"protocols":["pll"],"ns":[%d,%d],"engine":"auto","seed":%d,"replicates":%d}`,
			mixedSweepNs[0], mixedSweepNs[1], s, mixedSweepR)}
	}
}

// runServeMixed: repeated specs, so the LRU answers most submissions and
// identical in-flight runs are joined. Halfway the server is stopped with
// SIGTERM and rebooted on the same store; every reissueEvery-th request
// of the second half re-issues one of a fixed subset of the first half's
// specs, which must come back from the store (then the LRU) matching the
// first half's results byte for byte.
func runServeMixed(p *pass) error {
	store := filepath.Join(p.work, "store")
	s, err := p.bootServing(store)
	if err != nil {
		return err
	}
	half := p.budget / 2
	first, err := p.load(s, half, "m1", func(c, i int) request { return mixedRequest(p.seed, 0, c, i) })
	rss1, stopErr := s.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	// The re-issue subset: the specs of each client's first subsetSpan
	// requests (always run), with their first-half results.
	results := map[string]string{}
	var subset []request
	for _, r := range first.runs {
		if _, seen := results[r.req.body]; r.ok && r.i < subsetSpan && !seen {
			results[r.req.body] = r.norm
			subset = append(subset, request{kind: r.req.kind, body: r.req.body, reissue: true})
		}
	}
	if len(subset) == 0 {
		return errors.New("serve-mixed: no first-half run succeeded")
	}

	s, reboot, err := p.boot(store)
	if err != nil {
		return err
	}
	p.setup = append(p.setup, reboot)
	replayed, err := scrape(s.hc, s.base)
	if err != nil {
		s.stop()
		return err
	}
	second, err := p.load(s, half, "m2", func(c, i int) request {
		if i%reissueEvery == 0 {
			return subset[mix(p.seed, 6, uint64(c), uint64(i))%uint64(len(subset))]
		}
		return mixedRequest(p.seed, 1, c, i)
	})
	rss2, stopErr := s.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	if err := p.freshBoots(bootRuns - bootsBefore); err != nil {
		return err
	}
	for _, r := range second.runs {
		if !r.ok || !r.req.reissue {
			continue
		}
		ok := p.check(r.out.cached, "m2 client %d run %d: %s %s was simulated again, not served from the store",
			r.client, r.i, r.req.kind, r.req.body)
		ok = p.check(r.norm == results[r.req.body],
			"m2 client %d run %d: %s %s differs from its first-half result:\n%s\n%s",
			r.client, r.i, r.req.kind, r.req.body, r.norm, results[r.req.body]) && ok
		if !ok {
			p.failed++
		}
	}
	p.finishServe(max(rss1, rss2), first, second)
	if p.tr != nil {
		p.serveLayers(reboot, replayed, first, second)
	}
	return nil
}

// ---- per-layer numbers of the service -----------------------------------

// serveLayers derives the service's per-layer numbers of a traced pass
// from the client spans and the /metrics deltas of each phase, with
// client-observed run latency as the base of every share, then replays
// served jobs in-process for the engine layer.
func (p *pass) serveLayers(lastBoot float64, bootMetrics promSnapshot, phases ...*phase) {
	var latency, submit, cpu float64 // seconds
	var submitMs []float64
	runs, refused := 0, 0
	d := promSnapshot{}
	for _, ph := range phases {
		cpu += ph.cpu
		for _, r := range ph.runs {
			if r.out.status == http.StatusTooManyRequests {
				refused++
			}
			if !r.ok {
				continue
			}
			runs++
			latency += r.out.latency.Seconds()
			submit += r.out.submit.Seconds()
			submitMs = append(submitMs, ms(r.out.submit))
		}
		for k, v := range ph.after {
			d[k] += v - ph.before[k]
		}
	}
	L := p.layers
	L["http.submit_share"] = ratio(submit, latency)
	serverSubmit := 0.0
	for _, ep := range endpoints {
		serverSubmit += d.get("popprotod_http_request_seconds_sum", `route="POST `+ep.path+`"`)
	}
	L["http.server_share_of_submit"] = ratio(serverSubmit, submit)
	L["http.refused_frac"] = ratio(float64(refused), float64(p.attempted))
	L["runcore.queue_wait_share"] = ratio(d.get("popprotod_runcore_queue_wait_seconds_sum"), latency)
	for _, kind := range []string{"jobs", "experiments", "sweeps"} {
		L["runcore.run_share."+kind] = ratio(d.get("popprotod_runcore_run_seconds_sum", `kind="`+kind+`"`), latency)
		p.details["runcore.run_ms.mean."+kind] = 1000 * ratio(
			d.get("popprotod_runcore_run_seconds_sum", `kind="`+kind+`"`),
			d.get("popprotod_runcore_run_seconds_count", `kind="`+kind+`"`))
	}
	submissions := d.get("popprotod_runcore_submissions_total")
	for outcome, name := range map[string]string{"hit": "hit", "joined": "join", "restored": "restored"} {
		L["runcore."+name+"_frac"] = ratio(d.get("popprotod_runcore_submissions_total", `outcome="`+outcome+`"`), submissions)
	}
	L["store.append_share"] = ratio(d.get("popprotod_store_append_seconds_sum"), latency)
	L["store.fsync_share"] = ratio(d.get("popprotod_store_fsync_seconds_sum"), latency)
	L["store.batch_records.mean"] = ratio(d.get("popprotod_store_batch_records_sum"), d.get("popprotod_store_batch_records_count"))
	replay := bootMetrics.get("popprotod_store_replay_seconds")
	L["store.replay_share_of_setup"] = ratio(replay, lastBoot)
	L["cluster.merge_share"] = ratio(d.get("popprotod_cluster_merge_seconds_sum"), latency)
	L["server.cpu_share"] = ratio(cpu, latency)

	D := p.details
	D["http.submit_ms.p50"] = quantile(submitMs, 0.50)
	D["http.submit_ms.p99"] = quantile(submitMs, 0.99)
	D["http.server_ms.mean"] = 1000 * ratio(serverSubmit, float64(runs))
	D["runcore.queue_wait_ms.mean"] = 1000 * ratio(d.get("popprotod_runcore_queue_wait_seconds_sum"), d.get("popprotod_runcore_queue_wait_seconds_count"))
	D["store.append_ms.mean"] = 1000 * ratio(d.get("popprotod_store_append_seconds_sum"), d.get("popprotod_store_append_seconds_count"))
	D["store.fsync_ms.mean"] = 1000 * ratio(d.get("popprotod_store_fsync_seconds_sum"), d.get("popprotod_store_fsync_seconds_count"))
	D["store.replay_s"] = replay
	D["cluster.merge_ms.mean"] = 1000 * ratio(d.get("popprotod_cluster_merge_seconds_sum"), d.get("popprotod_cluster_merge_seconds_count"))
	D["server.cpu_ms_per_run"] = 1000 * ratio(cpu, float64(runs))

	p.replayServedJobs(phases[0])
}

// replayServedJobs replays the first served jobs in-process through the
// job runner's own schedule and checks each ends exactly where the server
// said it did; the replay gives the engine layer's numbers.
func (p *pass) replayServedJobs(ph *phase) {
	var st engineStats
	mem := startMem()
	entry, _ := registry.Lookup("pll")
	for _, r := range ph.runs {
		if st.ops == replayJobs {
			break
		}
		if r.req.kind != "job" || !r.ok {
			continue
		}
		var spec struct {
			N    int    `json:"n"`
			Seed uint64 `json:"seed"`
		}
		var v runView
		if json.Unmarshal([]byte(r.req.body), &spec) != nil || json.Unmarshal(r.out.view, &v) != nil || v.Result == nil {
			continue
		}
		run := fmt.Sprintf("replay-job-%d", st.ops)
		el, err := p.replay(registry.Spec{Protocol: "pll", N: spec.N, Engine: pp.EngineAuto, Seed: spec.Seed},
			entry.StepBudget(spec.N), 0, run, &st)
		if !p.check(err == nil, "%s: %v", run, err) {
			continue
		}
		p.check(el.Steps() == v.Result.Steps && el.Leaders() == v.Result.Leaders,
			"%s (%s): replay ended at %d steps with %d leaders, the server reported %d and %d",
			run, r.req.body, el.Steps(), el.Leaders(), v.Result.Steps, v.Result.Leaders)
	}
	mem.done(p, st.ops)
	st.fill(p)
}

// ---- /metrics ---------------------------------------------------------------

// promSnapshot maps each series of a Prometheus text exposition
// ("name{labels}") to its value.
type promSnapshot map[string]float64

func scrape(hc *http.Client, base string) (promSnapshot, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	snap := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap, sc.Err()
}

// get sums the series of the named family whose labels contain every
// given label matcher (e.g. `kind="jobs"`).
func (s promSnapshot) get(name string, labels ...string) float64 {
	sum := 0.0
	for series, v := range s {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			sum += v
		}
	}
	return sum
}
