package service

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden keys pin the canonical key and run id of a table of job,
// experiment and sweep specs across commits. The result cache, the
// durable store and cluster dedup all find a run by its key, so a key
// that moves under an unchanged spec makes stored results unreachable
// (their ids 404 after a restart). The table includes specs whose keys
// are known not to be merged with equal-meaning ones (see the key-version
// item of the roadmap): they are pinned as they are. Regenerate with
// `go test ./internal/service -run TestGoldenKeys -update-golden` only
// for a deliberate key change that also versions the keys.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_keys.txt")

const goldenKeysPath = "testdata/golden_keys.txt"

func goldenJobs() []JobSpec {
	return []JobSpec{
		{Protocol: "pll", N: 1000},
		{Protocol: "pll", N: 1000, Seed: 7},
		{Protocol: "pll", N: 1000, Engine: "auto"},
		{Protocol: "pll", N: 1 << 16, Engine: "auto"},
		{Protocol: "pll", N: 1 << 16, Engine: "hybrid"},
		{Protocol: "pll", N: 1000, Engine: "agent"},
		{Protocol: "pll", N: 1000, Engine: "count"},
		{Protocol: "pll", N: 1000, Engine: "batch"},
		{Protocol: "pll", N: 1000, Engine: "hybrid"},
		{Protocol: "pll", N: 1000, Engine: "agent", Seed: 42},
		{Protocol: "pll", N: 1000, M: 12},
		{Protocol: "pll-sym", N: 1000, Engine: "auto", M: 11},
		{Protocol: "pll", N: 1000, MaxParallelTime: 50},
		{Protocol: "pll", N: 1000, MaxParallelTime: 2.5},
		// Above the default budget: clamped, yet keyed maxpt=1e+12, not
		// maxpt=0 like the spec without it (a pinned drift).
		{Protocol: "pll", N: 1000, MaxParallelTime: 1e12},
		{Protocol: "pll", N: 1000, Verify: 5000},
		{Protocol: "angluin", N: 5000, Engine: "auto"},
		{Protocol: "angluin", N: 1 << 17, Engine: "auto", Seed: 3},
		{Protocol: "lottery", N: 2000, Engine: "batch"},
		{Protocol: "maxid", N: 1 << 17, Engine: "auto"},
		{Protocol: "epidemic", N: 3000},
	}
}

func goldenExperiments() []ExperimentSpec {
	return []ExperimentSpec{
		{Protocol: "pll", N: 1000, Replicates: 8},
		{Protocol: "pll", N: 1000, Replicates: 8, Seed: 7},
		{Protocol: "pll", N: 1000, Replicates: 8, Engine: "auto"},
		{Protocol: "pll", N: 1000, Replicates: 8, Engine: "agent"},
		{Protocol: "pll", N: 1 << 16, Replicates: 2, Engine: "auto"},
		{Protocol: "pll", N: 1 << 16, Replicates: 2, Engine: "hybrid"},
		{Protocol: "pll", N: 1000, Replicates: 8, Engine: "count"},
		{Protocol: "pll", N: 1000, Replicates: 8, Engine: "batch"},
		{Protocol: "pll", N: 1000, Replicates: 8, Engine: "hybrid", Seed: 9},
		{Protocol: "pll", N: 1000, Replicates: 8, M: 12},
		{Protocol: "pll", N: 1000, Replicates: 8, MaxParallelTime: 50},
		{Protocol: "pll", N: 1000, Replicates: 8, MaxParallelTime: 1e12},
		{Protocol: "pll", N: 1000, Replicates: 40, CI: 0.1},
		{Protocol: "pll", N: 1000, Replicates: 40, CI: 0.1, MinReplicates: 5},
		{Protocol: "pll", N: 1000, Replicates: 40, CI: 0.1, MinReplicates: 16},
		{Protocol: "pll", N: 1000, Replicates: 40, MinReplicates: 5},
		{Protocol: "angluin", N: 4000, Replicates: 3, Engine: "auto"},
		{Protocol: "maxid", N: 500, Replicates: 4},
	}
}

func goldenSweeps() []SweepSpec {
	return []SweepSpec{
		{Protocols: []string{"pll"}, Ns: []int{256, 1024}, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{1024, 256, 1024, 256}, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256, 1024}, Ms: []int{0}, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256, 1024}, Ms: []int{0, 0}, Replicates: 4},
		{Protocols: []string{"pll", "angluin", "pll"}, Ns: []int{256}, Replicates: 4},
		{Protocols: []string{"angluin", "pll"}, Ns: []int{256}, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256, 1 << 16}, Engine: "auto", Replicates: 2},
		{Protocols: []string{"pll"}, Ns: []int{256, 1 << 16}, Engine: "count", Replicates: 2},
		{Protocols: []string{"pll"}, Ns: []int{256}, Engine: "agent", Seed: 11, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256}, Engine: "batch", Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256}, Engine: "hybrid", Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{1024}, Ms: []int{14, 11, 14}, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256}, MaxParallelTime: 50, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256}, MaxParallelTime: 1e12, Replicates: 4},
		{Protocols: []string{"pll"}, Ns: []int{256}, Replicates: 40, CI: 0.1},
		{Protocols: []string{"pll"}, Ns: []int{256}, Replicates: 40, CI: 0.1, MinReplicates: 5},
		// Without a CI the floor is meaningless, yet the sweep keys min=5
		// while its cells key min=0 (a pinned drift).
		{Protocols: []string{"pll"}, Ns: []int{256}, Replicates: 40, MinReplicates: 5},
	}
}

// goldenKeyLines renders every table spec as "kind spec-json key id
// budget", with one extra line per sweep cell for the experiment it
// files under.
func goldenKeyLines(t *testing.T) []string {
	m := NewManager(Options{})
	defer m.Close()
	var lines []string
	emit := func(kind string, spec any, key, id string, budget uint64) {
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %s key=%q id=%s budget=%d", kind, js, key, id, budget))
	}
	for _, s := range goldenJobs() {
		canon, _, _, budget, err := m.Canonicalize(s)
		if err != nil {
			t.Fatalf("job %+v: %v", s, err)
		}
		emit("job", s, canon.key(), runID("j", canon.key()), budget)
	}
	for _, s := range goldenExperiments() {
		canon, espec, err := m.CanonicalizeExperiment(s)
		if err != nil {
			t.Fatalf("experiment %+v: %v", s, err)
		}
		emit("experiment", s, canon.key(), runID("e", canon.key()), espec.Budget)
	}
	for _, s := range goldenSweeps() {
		canon, _, plans, err := m.CanonicalizeSweep(s)
		if err != nil {
			t.Fatalf("sweep %+v: %v", s, err)
		}
		emit("sweep", s, canon.key(), runID("s", canon.key()), 0)
		for i, p := range plans {
			emit(fmt.Sprintf("  cell%d", i), p.expSpec, p.expSpec.key(), p.id, p.cell.Ensemble.Budget)
		}
	}
	return lines
}

// TestGoldenKeys compares the table's keys and run ids against the
// committed golden file.
func TestGoldenKeys(t *testing.T) {
	got := goldenKeyLines(t)
	path := filepath.FromSlash(goldenKeysPath)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden file has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
