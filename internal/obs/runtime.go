package obs

import (
	"bytes"
	"runtime/metrics"
)

// RuntimeMemory returns the Go runtime's memory series, each read from
// runtime/metrics at scrape time: the heap the last collection found
// live, the bytes allocated since the process started, and the completed
// GC cycles. They describe the whole process, whichever registry
// renders them.
func RuntimeMemory() []Collector {
	return []Collector{
		&runtimeSample{d: newDesc("go_gc_heap_live_bytes",
			"Heap bytes marked live by the most recent garbage collection."),
			typ: "gauge", sample: "/gc/heap/live:bytes"},
		&runtimeSample{d: newDesc("go_gc_heap_allocs_bytes_total",
			"Cumulative bytes allocated on the heap."),
			typ: "counter", sample: "/gc/heap/allocs:bytes"},
		&runtimeSample{d: newDesc("go_gc_cycles_total",
			"Completed garbage collection cycles."),
			typ: "counter", sample: "/gc/cycles/total:gc-cycles"},
	}
}

// runtimeSample is one runtime/metrics value exported as a series.
type runtimeSample struct {
	d      desc
	typ    string
	sample string
}

func (r *runtimeSample) metricName() string { return r.d.name }
func (r *runtimeSample) metricType() string { return r.typ }
func (r *runtimeSample) helpText() string   { return r.d.help }
func (r *runtimeSample) write(b *bytes.Buffer) {
	s := []metrics.Sample{{Name: r.sample}}
	metrics.Read(s)
	writeSeries(b, r.d.name, nil, nil, float64(s[0].Value.Uint64()))
}
