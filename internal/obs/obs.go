// Package obs is popprotod's dependency-free metrics subsystem: typed
// instruments (counters, gauges, histograms, each with an optional label
// dimension) collected by a Registry that renders the Prometheus text
// exposition format (version 0.0.4) over HTTP.
//
// The package deliberately reimplements the small subset of a metrics
// client the service needs rather than importing one: instruments are
// lock-free on the hot path (atomics; a histogram observation is one
// binary search plus three atomic adds), creation is explicit and
// panics on programmer errors (bad names, duplicate registration,
// wrong label arity), and the exposition is deterministic — series
// sorted by name then label values — so tests can assert exact output.
//
// Instruments exist independently of any registry; Register attaches
// them to one for exposition. Every instrument method is safe for
// concurrent use, and safe on a nil receiver (a no-op), so optional
// instrumentation can be threaded through a subsystem as possibly-nil
// fields without guarding every call site.
package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// labelSep joins label values into a child key; \xff cannot appear in
// valid UTF-8 label text at this position without being intentional, and
// collisions only merge series, never corrupt them.
const labelSep = "\xff"

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]* (the Prometheus data model, minus the colon
// reserved for recording rules).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// mustName panics on an invalid metric/label name — instrument creation
// happens at startup, so a bad name is a programmer error, not a runtime
// condition.
func mustName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric or label name %q", name))
	}
}

// desc is the name/help/labels triple shared by every instrument.
type desc struct {
	name   string
	help   string
	labels []string
}

func newDesc(name, help string, labels ...string) desc {
	mustName(name)
	for _, l := range labels {
		mustName(l)
	}
	return desc{name: name, help: help, labels: labels}
}

// Collector is one registrable metric family. The concrete instruments
// (Counter, Gauge, Histogram and their Vec forms, GaugeFunc) implement
// it; the interface is exported so callers can hold heterogeneous
// instrument lists, but its methods are internal to the package.
type Collector interface {
	metricName() string
	metricType() string
	write(b *bytes.Buffer)
	helpText() string
}

// --- formatting ----------------------------------------------------------

// formatFloat renders a sample value the way the text format expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line: backslash and newline (quotes are legal
// there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeSeries renders one sample line: name{labels...} value.
func writeSeries(b *bytes.Buffer, name string, labels, values []string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(values[i]))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// --- Counter -------------------------------------------------------------

// Counter is a monotonically increasing event count. The zero value is
// unusable; create with NewCounter. All methods are nil-safe no-ops.
type Counter struct {
	d      desc
	values []string // label values when part of a CounterVec
	v      atomic.Uint64
}

// NewCounter returns a standalone (label-free) counter.
func NewCounter(name, help string) *Counter {
	return &Counter{d: newDesc(name, help)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.d.name }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) helpText() string   { return c.d.help }
func (c *Counter) write(b *bytes.Buffer) {
	writeSeries(b, c.d.name, c.d.labels, c.values, float64(c.v.Load()))
}

// CounterVec is a counter family partitioned by label values. Children
// are created on first access and live for the process lifetime.
type CounterVec struct {
	d        desc
	mu       sync.RWMutex
	children map[string]*Counter
}

// NewCounterVec returns a counter family with the given label dimension.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label (use NewCounter)")
	}
	return &CounterVec{d: newDesc(name, help, labels...), children: make(map[string]*Counter)}
}

// With returns the child counter for the given label values, creating it
// (at zero) on first access — which also makes the series visible on
// /metrics, so pre-seeding children at startup guarantees a series
// exists before its first event.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.d.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.d.name, len(v.d.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c = &Counter{d: v.d, values: append([]string(nil), values...)}
	v.children[key] = c
	return c
}

// Each calls f for every child in sorted label order — how health
// endpoints sum a family without a second set of ad-hoc counters.
func (v *CounterVec) Each(f func(values []string, count uint64)) {
	if v == nil {
		return
	}
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*Counter, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.RUnlock()
	for _, c := range children {
		f(c.values, c.v.Load())
	}
}

func (v *CounterVec) metricName() string { return v.d.name }
func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) helpText() string   { return v.d.help }
func (v *CounterVec) write(b *bytes.Buffer) {
	v.Each(func(values []string, count uint64) {
		writeSeries(b, v.d.name, v.d.labels, values, float64(count))
	})
}

// --- Gauge ---------------------------------------------------------------

// Gauge is a value that can go up and down. The zero value is unusable;
// create with NewGauge. All methods are nil-safe no-ops.
type Gauge struct {
	d      desc
	values []string
	bits   atomic.Uint64 // float64 bits
}

// NewGauge returns a standalone (label-free) gauge.
func NewGauge(name, help string) *Gauge {
	return &Gauge{d: newDesc(name, help)}
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop; contention on gauges is negligible here).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricName() string { return g.d.name }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) helpText() string   { return g.d.help }
func (g *Gauge) write(b *bytes.Buffer) {
	writeSeries(b, g.d.name, g.d.labels, g.values, g.Value())
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	d        desc
	mu       sync.RWMutex
	children map[string]*Gauge
}

// NewGaugeVec returns a gauge family with the given label dimension.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label (use NewGauge)")
	}
	return &GaugeVec{d: newDesc(name, help, labels...), children: make(map[string]*Gauge)}
}

// With returns the child gauge for the given label values, creating it on
// first access.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	if len(values) != len(v.d.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.d.name, len(v.d.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	g, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.children[key]; ok {
		return g
	}
	g = &Gauge{d: v.d, values: append([]string(nil), values...)}
	v.children[key] = g
	return g
}

func (v *GaugeVec) metricName() string { return v.d.name }
func (v *GaugeVec) metricType() string { return "gauge" }
func (v *GaugeVec) helpText() string   { return v.d.help }
func (v *GaugeVec) write(b *bytes.Buffer) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*Gauge, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.RUnlock()
	for _, g := range children {
		writeSeries(b, v.d.name, v.d.labels, g.values, g.Value())
	}
}

// GaugeFunc is a gauge whose value is computed at scrape time — uptime,
// queue depths already tracked elsewhere, anything derivable on demand.
type GaugeFunc struct {
	d  desc
	fn func() float64
}

// NewGaugeFunc returns a gauge that reports fn() at every scrape. fn must
// be safe for concurrent use.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return &GaugeFunc{d: newDesc(name, help), fn: fn}
}

func (g *GaugeFunc) metricName() string { return g.d.name }
func (g *GaugeFunc) metricType() string { return "gauge" }
func (g *GaugeFunc) helpText() string   { return g.d.help }
func (g *GaugeFunc) write(b *bytes.Buffer) {
	writeSeries(b, g.d.name, nil, nil, g.fn())
}

// --- Histogram -----------------------------------------------------------

// Histogram is a distribution of observations over fixed bucket
// boundaries, rendered with cumulative bucket counts, a sum and a count
// (the Prometheus histogram contract, from which p50/p99 are derived at
// query time). Observation is lock-free: one binary search plus three
// atomic adds. The zero value is unusable; create with NewHistogram. All
// methods are nil-safe no-ops.
type Histogram struct {
	d      desc
	values []string
	upper  []float64 // sorted ascending; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a standalone histogram over the given bucket upper
// bounds (sorted ascending; a +Inf bucket is implicit). ExpBuckets builds
// exponential boundaries.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return newHistogram(newDesc(name, help), nil, buckets)
}

func newHistogram(d desc, values []string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: %s bucket bounds not strictly ascending", d.name))
		}
	}
	return &Histogram{
		d:      d,
		values: values,
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound contains v (le semantics).
	i := sort.SearchFloat64s(h.upper, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) metricName() string { return h.d.name }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) helpText() string   { return h.d.help }
func (h *Histogram) write(b *bytes.Buffer) {
	labels := append(append([]string(nil), h.d.labels...), "le")
	var cum uint64
	for i, bound := range h.upper {
		cum += h.counts[i].Load()
		values := append(append([]string(nil), h.values...), formatFloat(bound))
		writeSeries(b, h.d.name+"_bucket", labels, values, float64(cum))
	}
	values := append(append([]string(nil), h.values...), "+Inf")
	writeSeries(b, h.d.name+"_bucket", labels, values, float64(h.count.Load()))
	writeSeries(b, h.d.name+"_sum", h.d.labels, h.values, h.Sum())
	writeSeries(b, h.d.name+"_count", h.d.labels, h.values, float64(h.count.Load()))
}

// HistogramVec is a histogram family partitioned by label values, all
// children sharing one bucket layout.
type HistogramVec struct {
	d        desc
	buckets  []float64
	mu       sync.RWMutex
	children map[string]*Histogram
}

// NewHistogramVec returns a histogram family with the given label
// dimension and shared bucket bounds.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label (use NewHistogram)")
	}
	// Validate the layout once, eagerly, via a throwaway child.
	newHistogram(newDesc(name, help, labels...), nil, buckets)
	return &HistogramVec{
		d:        newDesc(name, help, labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]*Histogram),
	}
}

// With returns the child histogram for the given label values, creating
// it on first access.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.d.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.d.name, len(v.d.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children[key]; ok {
		return h
	}
	h = newHistogram(v.d, append([]string(nil), values...), v.buckets)
	v.children[key] = h
	return h
}

func (v *HistogramVec) metricName() string { return v.d.name }
func (v *HistogramVec) metricType() string { return "histogram" }
func (v *HistogramVec) helpText() string   { return v.d.help }
func (v *HistogramVec) write(b *bytes.Buffer) {
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*Histogram, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.RUnlock()
	for _, h := range children {
		h.write(b)
	}
}

// ExpBuckets returns n exponential bucket upper bounds starting at start
// and multiplying by factor: the layout for latency histograms, whose
// interesting range spans orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// --- Registry ------------------------------------------------------------

// Registry collects instruments for exposition. The zero value is not
// usable; create with NewRegistry.
type Registry struct {
	mu    sync.Mutex
	cs    []Collector
	names map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// MustRegister attaches instruments for exposition, panicking on a
// duplicate metric name — registration happens at startup, so a
// collision is a programmer error.
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		name := c.metricName()
		if r.names[name] {
			panic(fmt.Sprintf("obs: metric %q registered twice", name))
		}
		r.names[name] = true
		r.cs = append(r.cs, c)
	}
}

// WritePrometheus renders every registered family in text exposition
// format, sorted by metric name (ties keep registration order, which
// cannot happen for distinct instruments since names are unique).
func (r *Registry) WritePrometheus(b *bytes.Buffer) {
	r.mu.Lock()
	cs := append([]Collector(nil), r.cs...)
	r.mu.Unlock()
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].metricName() < cs[j].metricName() })
	for _, c := range cs {
		b.WriteString("# HELP ")
		b.WriteString(c.metricName())
		b.WriteByte(' ')
		b.WriteString(escapeHelp(c.helpText()))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(c.metricName())
		b.WriteByte(' ')
		b.WriteString(c.metricType())
		b.WriteByte('\n')
		c.write(b)
	}
}

// Handler returns an http.Handler serving the registry in text
// exposition format — the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b bytes.Buffer
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b.Bytes())
	})
}
