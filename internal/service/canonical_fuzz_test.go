package service

import (
	"slices"
	"testing"
)

var (
	fuzzProtocols = []string{"pll", "pll-sym", "angluin", "lottery", "maxid", "epidemic"}
	fuzzEngines   = []string{"", "auto", "agent", "count", "batch", "hybrid"}
	fuzzConcrete  = []string{"agent", "count", "batch", "hybrid"}
)

// FuzzCanonicalKeys checks the contract the result cache, the durable
// store and cluster dedup rely on, over fuzzed job, experiment and sweep
// specs:
//
//   - canonicalizing a canonical spec changes nothing (spec and key);
//   - "auto" and the engine it resolves to give one key;
//   - a seedless spec and the same spec with its derived seed give one
//     key;
//   - the order of a sweep's n and m axes, duplicate axis values, and ms
//     omitted versus [0] do not change a sweep key, and every sweep cell
//     files under the key of the standalone experiment over its spec;
//   - specs that differ in protocol, n, m, concrete engine, seed or
//     replicates get different keys.
//
// Equal-meaning specs the keys are known not to merge (maxParallelTime
// above the default versus none, a sweep's floor without a CI target,
// m = 0 versus the explicit canonical m) are not asserted either way;
// golden_keys.txt pins their current keys.
//
// Float fields are derived from integers so the fuzzer explores finite
// values, negatives included.
func FuzzCanonicalKeys(f *testing.F) {
	// proto, n, engine, seed, m, maxpt/16, replicates, ci·65536/1.2,
	// minReplicates, axes
	f.Add(uint8(0), uint32(1000), uint8(0), uint64(0), uint8(0), int32(0), int16(8), uint16(0), int8(0), []byte{})
	f.Add(uint8(0), uint32(1<<16), uint8(1), uint64(0), uint8(0), int32(800), int16(2), uint16(0), int8(0), []byte{1, 2, 3})
	f.Add(uint8(1), uint32(1000), uint8(2), uint64(7), uint8(75), int32(0), int16(40), uint16(5461), int8(0), []byte{0, 9})
	f.Add(uint8(2), uint32(5000), uint8(3), uint64(0), uint8(0), int32(1<<30), int16(40), uint16(5461), int8(5), []byte{4})
	f.Add(uint8(3), uint32(2000), uint8(4), uint64(1<<63), uint8(0), int32(-16), int16(3), uint16(0), int8(5), []byte{7, 7, 7})
	f.Add(uint8(4), uint32(1<<17), uint8(1), uint64(0), uint8(0), int32(0), int16(0), uint16(65535), int8(-1), []byte{2, 200})
	f.Add(uint8(5), uint32(3000), uint8(5), uint64(0), uint8(100), int32(40), int16(4), uint16(0), int8(0), []byte{255, 0, 128})

	m := NewManager(Options{})
	f.Cleanup(m.Close)
	f.Fuzz(func(t *testing.T, proto uint8, n uint32, engine uint8, seed uint64, mParam uint8,
		maxpt16 int32, replicates int16, ci16 uint16, minReplicates int8, axes []byte) {
		job := JobSpec{
			Protocol:        fuzzProtocols[int(proto)%len(fuzzProtocols)],
			N:               int(n % (1 << 21)),
			Engine:          fuzzEngines[int(engine)%len(fuzzEngines)],
			Seed:            seed,
			MaxParallelTime: float64(maxpt16) / 16,
		}
		if mParam >= 64 {
			job.M = int(mParam % 48)
		}
		exp := ExperimentSpec{
			Protocol:        job.Protocol,
			N:               job.N,
			Engine:          job.Engine,
			Seed:            job.Seed,
			M:               job.M,
			MaxParallelTime: job.MaxParallelTime,
			Replicates:      int(replicates),
			CI:              float64(ci16) / 65536 * 1.2,
			MinReplicates:   int(minReplicates),
		}
		checkJobKeys(t, m, job)
		checkExperimentKeys(t, m, exp)
		checkSweepKeys(t, m, exp, axes)
	})
}

func checkJobKeys(t *testing.T, m *Manager, spec JobSpec) {
	t.Helper()
	key := func(s JobSpec) (string, bool) {
		c, _, _, _, err := m.Canonicalize(s)
		return c.key(), err == nil
	}
	canon, _, _, _, err := m.Canonicalize(spec)
	if err != nil {
		return
	}
	again, _, _, _, err := m.Canonicalize(canon)
	if err != nil || again != canon {
		t.Fatalf("job %+v: canonical %+v re-canonicalizes to %+v (err %v)", spec, canon, again, err)
	}
	want := canon.key()
	same := func(what string, s JobSpec) {
		if k, ok := key(s); !ok || k != want {
			t.Errorf("job %+v: %s keys %q (valid %v), want %q", spec, what, k, ok, want)
		}
	}
	s := spec
	s.Engine = canon.Engine
	same("the resolved engine", s)
	s = spec
	s.Seed = canon.Seed
	same("the derived seed", s)
	if auto := canon; autoResolvesTo(m, auto.Protocol, auto.N, canon.Engine) {
		auto.Engine = "auto"
		same("engine auto", auto)
	}
	for what, d := range jobNeighbors(canon) {
		if k, ok := key(d); ok && k == want {
			t.Errorf("job %+v: differing %s (%+v) shares key %q", spec, what, d, want)
		}
	}
}

func checkExperimentKeys(t *testing.T, m *Manager, spec ExperimentSpec) {
	t.Helper()
	key := func(s ExperimentSpec) (string, bool) {
		c, _, err := m.CanonicalizeExperiment(s)
		return c.key(), err == nil
	}
	canon, _, err := m.CanonicalizeExperiment(spec)
	if err != nil {
		return
	}
	again, _, err := m.CanonicalizeExperiment(canon)
	if err != nil || again != canon {
		t.Fatalf("experiment %+v: canonical %+v re-canonicalizes to %+v (err %v)", spec, canon, again, err)
	}
	want := canon.key()
	same := func(what string, s ExperimentSpec) {
		if k, ok := key(s); !ok || k != want {
			t.Errorf("experiment %+v: %s keys %q (valid %v), want %q", spec, what, k, ok, want)
		}
	}
	s := spec
	s.Engine = canon.Engine
	same("the resolved engine", s)
	s = spec
	s.Seed = canon.Seed
	same("the derived seed", s)
	if auto := canon; autoResolvesTo(m, auto.Protocol, auto.N, canon.Engine) {
		auto.Engine = "auto"
		same("engine auto", auto)
	}
	neighbors := map[string]ExperimentSpec{}
	for what, d := range jobNeighbors(canon.jobPart()) {
		e := canon
		e.Protocol, e.N, e.Engine, e.Seed, e.M = d.Protocol, d.N, d.Engine, d.Seed, d.M
		neighbors[what] = e
	}
	r := canon
	r.Replicates++
	neighbors["replicates"] = r
	for what, d := range neighbors {
		if k, ok := key(d); ok && k == want {
			t.Errorf("experiment %+v: differing %s (%+v) shares key %q", spec, what, d, want)
		}
	}
}

// checkSweepKeys builds a small sweep around spec — up to two protocols,
// three population sizes and two m values, drawn from axes — and checks
// its key's invariance under axis order, duplicates and the ms default,
// and that each cell keys as its standalone experiment.
func checkSweepKeys(t *testing.T, m *Manager, spec ExperimentSpec, axes []byte) {
	t.Helper()
	sw := SweepSpec{
		Protocols:       []string{spec.Protocol},
		Ns:              []int{spec.N},
		Engine:          spec.Engine,
		Seed:            spec.Seed,
		MaxParallelTime: spec.MaxParallelTime,
		Replicates:      spec.Replicates,
		CI:              spec.CI,
		MinReplicates:   spec.MinReplicates,
	}
	if spec.M != 0 {
		sw.Ms = []int{spec.M}
	}
	for i, b := range axes {
		switch {
		case i == 0:
			sw.Protocols = append(sw.Protocols, fuzzProtocols[int(b)%len(fuzzProtocols)])
		case i < 3:
			sw.Ns = append(sw.Ns, spec.N+int(b)-128)
		case i == 3 && spec.M != 0:
			sw.Ms = append(sw.Ms, spec.M+int(b%4))
		}
	}
	canon, _, plans, err := m.CanonicalizeSweep(sw)
	if err != nil {
		return
	}
	again, _, _, err := m.CanonicalizeSweep(canon)
	if err != nil || again.key() != canon.key() || !slices.Equal(again.Ns, canon.Ns) ||
		!slices.Equal(again.Ms, canon.Ms) || !slices.Equal(again.Protocols, canon.Protocols) {
		t.Fatalf("sweep %+v: canonical %+v re-canonicalizes to %+v (err %v)", sw, canon, again, err)
	}
	want := canon.key()
	same := func(what string, s SweepSpec) {
		c, _, _, err := m.CanonicalizeSweep(s)
		if err != nil || c.key() != want {
			t.Errorf("sweep %+v: %s keys %q (err %v), want %q", sw, what, c.key(), err, want)
		}
	}
	s := sw
	s.Ns = slices.Clone(sw.Ns)
	slices.Reverse(s.Ns)
	s.Ms = slices.Clone(sw.Ms)
	slices.Reverse(s.Ms)
	same("reversed n and m axes", s)
	s = sw
	s.Protocols = append(slices.Clone(sw.Protocols), sw.Protocols...)
	s.Ns = append(slices.Clone(sw.Ns), sw.Ns...)
	s.Ms = append(slices.Clone(sw.Ms), sw.Ms...)
	same("duplicated axis values", s)
	if len(sw.Ms) == 0 {
		s = sw
		s.Ms = []int{0}
		same("ms [0]", s)
	}
	for _, p := range plans {
		e, _, err := m.CanonicalizeExperiment(ExperimentSpec{
			Protocol:        p.cell.Protocol,
			N:               p.cell.N,
			Engine:          canon.Engine,
			Seed:            canon.Seed,
			M:               p.cell.M,
			MaxParallelTime: canon.MaxParallelTime,
			Replicates:      canon.Replicates,
			CI:              canon.CI,
			MinReplicates:   canon.MinReplicates,
		})
		if err != nil || e.key() != p.expSpec.key() || runID("e", e.key()) != p.id {
			t.Errorf("sweep %+v: cell %d files under %q, its standalone experiment under %q (err %v)",
				sw, p.cell.Index, p.expSpec.key(), e.key(), err)
		}
	}
}

// autoResolvesTo reports whether engine "auto" resolves to engine for
// protocol at population n.
func autoResolvesTo(m *Manager, protocol string, n int, engine string) bool {
	c, _, _, _, err := m.Canonicalize(JobSpec{Protocol: protocol, N: n, Engine: "auto"})
	return err == nil && c.Engine == engine
}

// jobNeighbors returns canonical variants of canon that each differ in
// one identity field: protocol, n, m, concrete engine, or seed. m only
// varies between explicit values (0 means the canonical m, a pinned
// drift), and the seed stays explicit.
func jobNeighbors(canon JobSpec) map[string]JobSpec {
	out := make(map[string]JobSpec)
	d := canon
	d.Protocol = fuzzProtocols[(slices.Index(fuzzProtocols, canon.Protocol)+1)%len(fuzzProtocols)]
	out["protocol"] = d
	d = canon
	d.N++
	out["n"] = d
	if canon.M != 0 {
		d = canon
		d.M++
		out["m"] = d
	}
	d = canon
	d.Engine = fuzzConcrete[(slices.Index(fuzzConcrete, canon.Engine)+1)%len(fuzzConcrete)]
	out["engine"] = d
	if canon.Seed^1 != 0 {
		d = canon
		d.Seed ^= 1
		out["seed"] = d
	}
	return out
}
