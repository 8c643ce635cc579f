package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// benchFile is BENCHMARK.json: the workloads, and every metric's unit,
// direction and (end-to-end only) regression bound. It is the one list of
// metric names: a run whose metrics differ from it, in either direction,
// is a benchmark bug and fails.
type benchFile struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchPath is where BENCHMARK.json lives, relative to the repository
// root popbench runs from.
const benchPath = "BENCHMARK.json"

func loadBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func (b *benchFile) workloadNames() []string {
	names := make([]string, len(b.Workloads))
	for i, w := range b.Workloads {
		names[i] = w.Name
	}
	return names
}

// defs returns the end-to-end or the per-layer metric list.
func (b *benchFile) defs(layers bool) []metricDef {
	if layers {
		return b.PerLayer
	}
	return b.EndToEnd
}

// checkNames reports every difference between the names a run produced
// and the names BENCHMARK.json lists.
func checkNames(defs []metricDef, got map[string]float64) error {
	var missing, extra []string
	for _, d := range defs {
		if _, ok := got[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	for name := range got {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	slices.Sort(extra)
	return fmt.Errorf("metric names differ from BENCHMARK.json: missing [%s], not listed [%s]",
		strings.Join(missing, " "), strings.Join(extra, " "))
}

// optionalLayers are the per-layer metrics of layers only some workloads
// cross (the hybrid controller, the sweep layer, the service); a traced
// pass that does not cross the layer reports 0. None of them is a time:
// service times are reported as shares of client-observed run latency,
// and their absolute values go to the run's details.
var optionalLayers = []string{
	"pp.hybrid.round_frac",
	"pp.hybrid.interact_frac",
	"pp.hybrid.skip_frac",
	"pp.hybrid.handovers_per_op",
	"sweep.self_frac",
	"http.submit_share",
	"http.server_share_of_submit",
	"http.refused_frac",
	"runcore.queue_wait_share",
	"runcore.run_share.jobs",
	"runcore.run_share.experiments",
	"runcore.run_share.sweeps",
	"runcore.hit_frac",
	"runcore.join_frac",
	"runcore.restored_frac",
	"store.append_share",
	"store.fsync_share",
	"store.batch_records.mean",
	"store.replay_share_of_setup",
	"cluster.merge_share",
	"server.cpu_share",
}
