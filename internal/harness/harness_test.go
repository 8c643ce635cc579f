package harness

import (
	"strings"
	"testing"

	"popproto/internal/pp"
)

func quickCfg() Config {
	return Config{Quick: true, Seed: 20190612, Workers: 2}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 12 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"table1", "table2", "table3", "theorem1", "lemma2",
		"lemma4", "lemma6", "lemma7", "lemma8", "lemma9", "backup", "coins", "symmetric"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a nonexistent experiment")
	}
	if len(IDs()) != len(all) {
		t.Fatalf("IDs() returned %d ids for %d experiments", len(IDs()), len(all))
	}
}

// TestExperimentsQuick runs every experiment at smoke-test scale and
// requires a complete report and all-pass verdicts. The seeds are fixed,
// so this is deterministic.
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	cfg := quickCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			if res.ID != e.ID {
				t.Fatalf("result id %q != experiment id %q", res.ID, e.ID)
			}
			if !strings.Contains(res.Markdown, "Verdicts") {
				t.Fatalf("report missing verdicts section:\n%s", res.Markdown)
			}
			if len(res.Verdicts) == 0 {
				t.Fatal("no verdicts")
			}
			for _, v := range res.Verdicts {
				if !v.Pass {
					t.Errorf("verdict failed: %s — %s", v.Claim, v.Detail)
				}
			}
			if t.Failed() {
				t.Logf("full report:\n%s", res.Markdown)
			}
		})
	}
}

// TestExperimentsQuickCountEngine reruns the election-time sweeps on the
// census engine: the paper's claims must verify identically on both
// engines (the statistical-equivalence tests in the repository root check
// the distributions directly; this checks the experiment plumbing).
func TestExperimentsQuickCountEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	cfg := quickCfg()
	cfg.Engine = pp.EngineCount
	for _, id := range []string{"table1", "table2", "theorem1", "trajectory"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			for _, v := range res.Verdicts {
				if !v.Pass {
					t.Errorf("verdict failed on count engine: %s — %s", v.Claim, v.Detail)
				}
			}
			if t.Failed() {
				t.Logf("full report:\n%s", res.Markdown)
			}
		})
	}
}

// TestReportsIndependentOfWorkers pins the in-order fold: every
// experiment that fans replicates out over workers must render the
// byte-identical Quick report at one worker and at eight.
func TestReportsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	for _, id := range []string{"lemma4", "lemma6", "lemma7", "lemma8", "lemma9",
		"backup", "ablation", "symmetric"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Workers = 1
			one := e.Run(cfg).Markdown
			cfg.Workers = 8
			if eight := e.Run(cfg).Markdown; eight != one {
				t.Errorf("report differs between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s", one, eight)
			}
		})
	}
}
