package harness

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"popproto/internal/pp"
)

// The golden reports pin every experiment's Quick report byte for byte:
// the agent-engine report of every row of the claims table, plus the
// count-engine report of every row with ensemble cells and of the
// trajectory. Reports derive
// all randomness from Config.Seed through ensemble.ReplicateSeed, so they
// are independent of Config.Workers, and a refactor of the harness must
// leave them unchanged. Regenerate with
// `go test ./internal/harness -run TestExperimentsQuick -update-golden`
// (the pattern also matches TestExperimentsQuickCountEngine) only for a deliberate change to what an experiment measures or prints;
// blocks of rows a -run filter skips are kept as they are.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/reports_quick.md")

const goldenReportsPath = "testdata/reports_quick.md"

// goldenMarker opens one report block of the golden file.
const goldenMarker = "<!-- golden: "

func goldenKey(id string, engine pp.Engine) string { return id + " engine=" + engine.String() }

// goldenEngines returns the engines e's report is pinned on: the agent
// engine, plus the count engine for rows with ensemble cells and for the
// trajectory, which traces its election on Config.Engine too.
func goldenEngines(e Experiment) []pp.Engine {
	if e.Cells != nil || e.ID == "trajectory" {
		return []pp.Engine{pp.EngineAgent, pp.EngineCount}
	}
	return []pp.Engine{pp.EngineAgent}
}

// readGoldenReports parses the golden file into report blocks by key.
func readGoldenReports(t *testing.T) map[string]string {
	t.Helper()
	blocks := map[string]string{}
	data, err := os.ReadFile(goldenReportsPath)
	if err != nil {
		if !*updateGolden {
			t.Fatalf("%v (run with -update-golden to create it)", err)
		}
		return blocks
	}
	for _, block := range strings.Split(string(data), goldenMarker)[1:] {
		header, body, _ := strings.Cut(block, " -->\n")
		blocks[header] = body
	}
	return blocks
}

// checkQuickReports runs, as one subtest per row, the Quick report of
// every row pinned on engine at one worker. Each report must pass every
// verdict and equal its golden block; with -update-golden the blocks of
// the rows it ran are rewritten.
func checkQuickReports(t *testing.T, engine pp.Engine) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	golden := readGoldenReports(t)
	for _, e := range All() {
		if !slices.Contains(goldenEngines(e), engine) {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Engine, cfg.Workers = engine, 1
			res := e.Run(cfg)
			if res.ID != e.ID || len(res.Verdicts) == 0 {
				t.Fatalf("result %q has %d verdicts", res.ID, len(res.Verdicts))
			}
			for _, v := range res.Verdicts {
				if !v.Pass {
					t.Errorf("verdict failed on %s engine: %s — %s", engine, v.Claim, v.Detail)
				}
			}
			key := goldenKey(e.ID, engine)
			if *updateGolden {
				golden[key] = res.Markdown
			} else if golden[key] != res.Markdown {
				t.Errorf("report differs from %s block %q:\n--- got\n%s\n--- want\n%s",
					goldenReportsPath, key, res.Markdown, golden[key])
			}
			if t.Failed() {
				t.Logf("full report:\n%s", res.Markdown)
			}
		})
	}
	if *updateGolden {
		writeGoldenReports(t, golden)
	}
}

// writeGoldenReports writes the golden file's blocks in table order.
func writeGoldenReports(t *testing.T, golden map[string]string) {
	t.Helper()
	var out strings.Builder
	for _, e := range All() {
		for _, engine := range goldenEngines(e) {
			if body, ok := golden[goldenKey(e.ID, engine)]; ok {
				fmt.Fprintf(&out, "%s%s -->\n%s", goldenMarker, goldenKey(e.ID, engine), body)
			}
		}
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenReportsPath, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentsQuick checks every row's agent-engine Quick report.
func TestExperimentsQuick(t *testing.T) { checkQuickReports(t, pp.EngineAgent) }

// TestExperimentsQuickCountEngine checks the count-engine Quick report of
// every row with ensemble cells and of the trajectory: the paper's claims
// must verify on both engines (the statistical-equivalence tests in the
// repository root check the distributions directly; this checks the
// experiment plumbing).
func TestExperimentsQuickCountEngine(t *testing.T) { checkQuickReports(t, pp.EngineCount) }

// TestReportsIndependentOfWorkers pins the in-order fold: every row must
// render, at eight workers, on each of its golden engines, the report its
// golden block holds for one worker (with -update-golden, the report of a
// one-worker run).
func TestReportsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	golden := readGoldenReports(t)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			for _, engine := range goldenEngines(e) {
				t.Run(engine.String(), func(t *testing.T) {
					cfg := quickCfg()
					cfg.Engine, cfg.Workers = engine, 1
					one := golden[goldenKey(e.ID, engine)]
					if *updateGolden {
						one = e.Run(cfg).Markdown
					}
					cfg.Workers = 8
					if eight := e.Run(cfg).Markdown; eight != one {
						t.Errorf("report differs between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s",
							one, eight)
					}
				})
			}
		})
	}
}
