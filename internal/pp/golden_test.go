package pp_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"popproto/internal/baseline"
	"popproto/internal/core"
	"popproto/internal/pp"
	"popproto/internal/pp/pptest"
)

// The golden chains pin every engine's sampled chain bit for bit
// across commits: canonical result keys contain only the engine name, and
// the result store serves stored runs by key, so an engine whose chain
// drifts under a fixed seed would silently serve stale results as
// current. Regenerate with `go test ./internal/pp -run TestGoldenChains
// -update-golden` only for a deliberate chain change that also versions
// the keys.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_chains.txt")

const goldenPath = "testdata/golden_chains.txt"

// censusHash fingerprints a census independently of map order: entries
// are formatted, sorted and hashed.
func censusHash[S comparable](census map[S]int) string {
	entries := make([]string, 0, len(census))
	for s, c := range census {
		entries = append(entries, fmt.Sprintf("%v=%d", s, c))
	}
	sort.Strings(entries)
	h := fnv.New64a()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenSnapshot[S comparable](r pp.Runner[S]) string {
	return fmt.Sprintf("steps=%d leaders=%d roles=%d census=%s",
		r.Steps(), r.Leaders(), r.RoleChanges(), censusHash(r.Census()))
}

// goldenChain renders one (engine, protocol, seed) combination: fixed
// RunSteps chunks, the RunUntilLeaders first-hit step, a TrackStates run
// (agent engine only: the census engines keep no record of visited
// states) and a mid-run Clone continuation, each from a fresh simulator.
func goldenChain[S comparable](engine pp.Engine, proto pp.Protocol[S], n int, seed uint64,
	chunks []uint64, budget uint64) []string {
	prefix := fmt.Sprintf("%s/%s/n=%d/seed=%d", engine, proto.Name(), n, seed)
	var out []string
	emit := func(op, v string) { out = append(out, prefix+" "+op+" "+v) }

	r := pp.NewRunner(engine, proto, n, seed)
	for i, k := range chunks {
		r.RunSteps(k)
		emit(fmt.Sprintf("chunk%d", i), goldenSnapshot(r))
	}

	r = pp.NewRunner(engine, proto, n, seed)
	steps, ok := r.RunUntilLeaders(1, budget)
	emit("until", fmt.Sprintf("hit=%d ok=%v %s", steps, ok, goldenSnapshot(r)))

	if sim, ok := pp.NewRunner(engine, proto, n, seed).(*pp.Simulator[S]); ok {
		sim.TrackStates()
		sim.RunSteps(chunks[len(chunks)-1])
		emit("track", fmt.Sprintf("distinct=%d %s", sim.DistinctStates(), goldenSnapshot[S](sim)))
	}

	r = pp.NewRunner(engine, proto, n, seed)
	r.RunSteps(chunks[len(chunks)-1] / 2)
	c := r.CloneRunner()
	c.RunSteps(chunks[len(chunks)-1])
	emit("clone", goldenSnapshot(c))
	r.RunSteps(chunks[len(chunks)-1])
	if got, want := goldenSnapshot(r), goldenSnapshot(c); got != want {
		emit("clone-diverged", got)
	}
	return out
}

// mint is genuinely state-hungry: every interaction hashes the pair into
// a fresh initiator state, so the state table grows by about one state
// per interaction while the live support spreads over the population.
type mintState uint32

type mint struct{}

func (mint) Name() string            { return "mint" }
func (mint) InitialState() mintState { return 0 }
func (mint) Output(s mintState) pp.Role {
	if s%2 == 0 {
		return pp.Leader
	}
	return pp.Follower
}

func (mint) Transition(a, b mintState) (mintState, mintState) {
	x := uint32(a)*0x9e3779b1 ^ (uint32(b) + 0x7f4a7c15)
	x ^= x >> 15
	x *= 0x2c1b3c6d
	x ^= x >> 12
	return mintState(x), b
}

func goldenLines() []string {
	var lines []string
	for _, engine := range pp.Engines() {
		for seed := uint64(1); seed <= 3; seed++ {
			const nBig, nDuel = 4096, 1024
			lines = append(lines, goldenChain[core.State](engine, core.NewForN(nBig), nBig, seed,
				[]uint64{1, 7, nBig / 4, nBig, 4 * nBig, 16 * nBig}, 400*nBig)...)
			lines = append(lines, goldenChain[baseline.AngluinState](engine, baseline.Angluin{}, nBig, seed,
				[]uint64{1, 7, nBig / 4, nBig, 4 * nBig, 16 * nBig}, 1<<40)...)
			lines = append(lines, goldenChain[bool](engine, pptest.Duel{}, nDuel, seed,
				[]uint64{1, 7, nDuel / 4, nDuel, 4 * nDuel, 16 * nDuel}, 1<<40)...)
			// mint walks past the dense memo's caps within the first
			// chunks, so the census engines' bounded memo behind the
			// matrix is pinned too, and so is the agent engine's
			// conversion to per-agent states.
			lines = append(lines, goldenChain[mintState](engine, mint{}, nBig, seed,
				[]uint64{1, 7, nBig / 4, nBig, 4 * nBig}, 4*nBig)...)
		}
	}
	return lines
}

// TestGoldenChains compares every engine's chain against the
// committed golden file.
func TestGoldenChains(t *testing.T) {
	got := goldenLines()
	path := filepath.FromSlash(goldenPath)
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
