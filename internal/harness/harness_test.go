package harness

import "testing"

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
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Check == nil {
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
