package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"popproto/internal/ensemble"
	"popproto/internal/pp"
	"popproto/internal/registry"
)

// maxBodyBytes bounds POST bodies; a job or sweep spec is a handful of
// scalars and short arrays.
const maxBodyBytes = 1 << 20

// NewHandler returns the popprotod HTTP API on top of m:
//
//	GET    /v1/protocols               the protocol catalog with parameter docs
//	POST   /v1/jobs                    submit a job (JobSpec JSON body)
//	GET    /v1/jobs/{id}               job status and result
//	DELETE /v1/jobs/{id}               request cancellation
//	GET    /v1/jobs/{id}/trace         census trajectory as server-sent events
//	POST   /v1/experiments             submit an ensemble (ExperimentSpec body)
//	GET    /v1/experiments/{id}        experiment status and aggregates
//	DELETE /v1/experiments/{id}        request cancellation
//	GET    /v1/experiments/{id}/stream live aggregates as server-sent events
//	POST   /v1/sweeps                  submit a parameter sweep (SweepSpec body)
//	GET    /v1/sweeps/{id}             sweep status, cells and scaling summary
//	DELETE /v1/sweeps/{id}             request cancellation (cascades to cells)
//	GET    /v1/sweeps/{id}/stream      live per-cell aggregates as server-sent events
//	GET    /v1/results                 query the durable result corpus (filters, pagination,
//	                                   aggregate=scaling for stored-experiment fits)
//	POST   /v1/cluster/leases          worker pull: grant a replicate-range lease
//	POST   /v1/cluster/leases/{id}/heartbeat  renew a lease
//	POST   /v1/cluster/leases/{id}/complete   post a range's partial aggregate
//	GET    /v1/cluster                 coordinator status (workers, ranges, leases)
//	GET    /v1/health                  liveness, uptime, build info, queue and cache counters
//	GET    /metrics                    Prometheus text-format exposition
//
// Every error response is JSON of the form {"error": "..."}; invalid
// specs map to 400, unknown runs to 404, a full queue to 429, and a
// shutting-down server to 503.
//
// The returned handler wraps the routed mux with the front-door
// telemetry middleware: per-route request counters and latency
// histograms, the in-flight gauge, and (when Options.Logger is set) one
// structured log record per request.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/protocols", handleProtocols)

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(w, r, "job spec", m.Submit, func(j *Job, cached bool) any {
			annotateRun(r, j, cached)
			return submitResponse{Job: j.View(), Cached: cached}
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "job", m.Get, func(j *Job) {
			writeJSON(w, http.StatusOK, j.View())
		})
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "job", m.Get, func(j *Job) {
			m.Cancel(j.ID)
			writeJSON(w, http.StatusAccepted, j.View())
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "job", m.Get, func(j *Job) {
			replay, live, cancel := j.Subscribe()
			streamSSE(m, w, r, "census", replay, live, cancel, appendFrame, func() any { return j.View() })
		})
	})

	mux.HandleFunc("POST /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(w, r, "experiment spec", m.SubmitExperiment, func(e *Experiment, cached bool) any {
			annotateRun(r, e, cached)
			return submitExperimentResponse{Experiment: e.View(), Cached: cached}
		})
	})
	mux.HandleFunc("GET /v1/experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "experiment", m.GetExperiment, func(e *Experiment) {
			writeJSON(w, http.StatusOK, e.View())
		})
	})
	mux.HandleFunc("DELETE /v1/experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "experiment", m.GetExperiment, func(e *Experiment) {
			m.CancelExperiment(e.ID)
			writeJSON(w, http.StatusAccepted, e.View())
		})
	})
	mux.HandleFunc("GET /v1/experiments/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "experiment", m.GetExperiment, func(e *Experiment) {
			latest, live, cancel := e.Subscribe()
			var replay []ensemble.Aggregates
			if latest != nil {
				replay = append(replay, *latest)
			}
			streamSSE(m, w, r, "aggregate", replay, live, cancel, appendMarshal, func() any { return e.View() })
		})
	})

	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(w, r, "sweep spec", m.SubmitSweep, func(s *Sweep, cached bool) any {
			annotateRun(r, s, cached)
			return submitSweepResponse{Sweep: s.View(), Cached: cached}
		})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "sweep", m.GetSweep, func(s *Sweep) {
			writeJSON(w, http.StatusOK, s.View())
		})
	})
	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "sweep", m.GetSweep, func(s *Sweep) {
			m.CancelSweep(s.ID)
			writeJSON(w, http.StatusAccepted, s.View())
		})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		withRun(w, r, "sweep", m.GetSweep, func(s *Sweep) {
			replay, live, cancel := s.Subscribe()
			streamSSE(m, w, r, "cell", replay, live, cancel, appendMarshal, func() any { return s.View() })
		})
	})

	mux.HandleFunc("GET /v1/results", func(w http.ResponseWriter, r *http.Request) {
		handleResults(m, w, r)
	})

	// The cluster lease protocol registers directly on the same mux, so
	// the front-door middleware labels worker traffic per route like any
	// other endpoint.
	m.Coordinator().Routes(mux)

	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Health())
	})
	mux.Handle("GET /metrics", m.MetricsRegistry().Handler())
	return m.instrumentHTTP(mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// protocolDoc is the catalog rendering of a registry entry.
type protocolDoc struct {
	Key     string `json:"key"`
	Summary string `json:"summary"`
	States  string `json:"states"`
	Time    string `json:"time"`
	Target  int    `json:"target"`
	// MinN is the smallest population a spec for this protocol may name.
	MinN   int        `json:"minN"`
	Params []paramDoc `json:"params,omitempty"`
	// Engines lists the engines that scale to large n for this protocol,
	// in preference order, plus the pseudo-engine "auto", which resolves
	// to the recommendation per population size (every engine is
	// accepted at any size within the server's limits).
	Engines []string `json:"engines"`
	// RecommendedEngine previews what "auto" resolves to at a large
	// population (10⁶): the registry's per-protocol recommendation.
	RecommendedEngine string `json:"recommendedEngine"`
}

type paramDoc struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

func handleProtocols(w http.ResponseWriter, _ *http.Request) {
	entries := registry.Entries()
	docs := make([]protocolDoc, len(entries))
	for i, e := range entries {
		d := protocolDoc{
			Key:               e.Key,
			Summary:           e.Summary,
			States:            e.States,
			Time:              e.Time,
			Target:            e.Target,
			MinN:              e.MinN,
			RecommendedEngine: e.RecommendedEngine(1_000_000).String(),
		}
		for _, p := range e.Params {
			d.Params = append(d.Params, paramDoc{Name: p.Name, Doc: p.Doc})
		}
		for _, eng := range e.SuitableEngines() {
			d.Engines = append(d.Engines, eng.String())
		}
		d.Engines = append(d.Engines, pp.EngineAuto.String())
		docs[i] = d
	}
	writeJSON(w, http.StatusOK, struct {
		Protocols []protocolDoc `json:"protocols"`
	}{docs})
}

// submitResponse is the POST /v1/jobs body: the job plus whether it was
// answered from the finished-job cache.
type submitResponse struct {
	Job    JobView `json:"job"`
	Cached bool    `json:"cached"`
}

// submitExperimentResponse is the POST /v1/experiments body.
type submitExperimentResponse struct {
	Experiment ExperimentView `json:"experiment"`
	Cached     bool           `json:"cached"`
}

// submitSweepResponse is the POST /v1/sweeps body.
type submitSweepResponse struct {
	Sweep  SweepView `json:"sweep"`
	Cached bool      `json:"cached"`
}

// handleSubmit is the one submission handler every run kind shares:
// decode the spec (strictly — unknown fields are rejected), submit it
// through the kind's manager method, map the shared error taxonomy to
// status codes, and answer 200 for cached work, 202 for fresh or joined
// work.
func handleSubmit[Spec, R any](w http.ResponseWriter, r *http.Request, what string,
	submit func(Spec) (R, bool, error), render func(R, bool) any,
) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid %s: %v", what, err)
		return
	}
	run, cached, err := submit(spec)
	switch {
	case errors.Is(err, registry.ErrBadSpec):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case errors.Is(err, ErrBusy):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusAccepted
	if cached {
		code = http.StatusOK
	}
	writeJSON(w, code, render(run, cached))
}

// withRun resolves the {id} path value through the kind's getter and
// 404s unknown ids.
func withRun[R any](w http.ResponseWriter, r *http.Request, what string,
	get func(string) (R, bool), fn func(R),
) {
	id := r.PathValue("id")
	run, ok := get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such %s %q", what, id)
		return
	}
	annotateRun(r, run, false)
	fn(run)
}

// appendFrame renders a job frame into an event's data.
func appendFrame(dst []byte, f Frame) ([]byte, error) { return f.AppendJSON(dst), nil }

// appendMarshal is the event data of the kinds that keep structured
// events: their json.Marshal output.
func appendMarshal[E any](dst []byte, e E) ([]byte, error) {
	data, err := json.Marshal(e)
	return append(dst, data...), err
}

// streamSSE is the one server-sent-events loop every run kind shares:
// replay the stored events, forward live ones as they are published,
// and finish with a "done" event carrying the kind's view once the run
// reaches a terminal state (the run core closes the live channel then —
// and only then). The subscription's cancel only stops delivery, so
// returning on a dropped client can never race the publisher.
//
// encode appends an event's data to the stream's write buffer, which is
// reused for the whole stream, so a job frame, replayed or live, is
// rendered in place without an allocation of its own. The replay goes
// out in one write and one flush, and live events that are already
// queued when one arrives share its flush: a flush is a syscall, and a
// slow client would otherwise pay one per event.
func streamSSE[E any](m *Manager, w http.ResponseWriter, r *http.Request, event string,
	replay []E, live <-chan E, cancel func(), encode func(dst []byte, e E) ([]byte, error), doneView func() any,
) {
	defer cancel()
	m.metrics.sseSubscribers.Inc()
	defer m.metrics.sseSubscribers.Dec()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Events are collected in buf and go out with send.
	var buf []byte
	add := func(e E) bool {
		buf = append(buf, "event: "...)
		buf = append(buf, event...)
		buf = append(buf, "\ndata: "...)
		var err error
		if buf, err = encode(buf, e); err != nil {
			return false
		}
		buf = append(buf, "\n\n"...)
		return true
	}
	send := func() bool {
		if len(buf) == 0 {
			return true
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		if err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	for _, e := range replay {
		if !add(e) {
			return
		}
	}
	if !send() {
		return
	}
	for {
		select {
		case e, open := <-live:
		queued:
			for open {
				if !add(e) {
					return
				}
				select {
				case e, open = <-live:
				default:
					break queued
				}
			}
			if !open {
				var err error
				buf = append(buf, "event: done\ndata: "...)
				if buf, err = appendMarshal(buf, doneView()); err == nil {
					buf = append(buf, "\n\n"...)
					send()
				}
				return
			}
			if !send() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
