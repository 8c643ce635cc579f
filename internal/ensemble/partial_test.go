package ensemble_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"popproto/internal/ensemble"
)

// TestPlanRanges pins the canonical partition: contiguous, ascending,
// covering [0, R) exactly, with the documented size law.
func TestPlanRanges(t *testing.T) {
	for _, r := range []int{1, 2, 7, 8, 9, 24, 64, 200, 255, 256, 257, 2048, 2049, 100000} {
		ranges := ensemble.PlanRanges(r)
		size := ensemble.PlanRangeSize(r)
		if size < 1 || (r >= 8 && size < 8) || size > max(r, 1) {
			t.Fatalf("R=%d: range size %d out of bounds", r, size)
		}
		if len(ranges) == 0 || ranges[0].Lo != 0 || ranges[len(ranges)-1].Hi != r {
			t.Fatalf("R=%d: partition %v does not cover [0,%d)", r, ranges, r)
		}
		for i, rg := range ranges {
			if rg.Index != i {
				t.Fatalf("R=%d: range %d has index %d", r, i, rg.Index)
			}
			if i > 0 && rg.Lo != ranges[i-1].Hi {
				t.Fatalf("R=%d: gap before range %d: %v", r, i, ranges)
			}
			if want := size; rg.Hi-rg.Lo != want && i != len(ranges)-1 {
				t.Fatalf("R=%d: interior range %d has size %d, want %d", r, i, rg.Hi-rg.Lo, want)
			}
		}
	}
}

// runRange executes one range of the spec as a one-range RunRanges
// block, the way a cluster worker runs its lease.
func runRange(tb testing.TB, spec ensemble.Spec, rg ensemble.Range, workers int) *ensemble.Partial {
	tb.Helper()
	var p *ensemble.Partial
	err := ensemble.RunRanges(context.Background(), spec, []ensemble.Range{rg}, workers,
		func(done *ensemble.Partial) bool {
			p = done
			return false
		})
	if err != nil {
		tb.Fatalf("RunRanges[%d,%d): %v", rg.Lo, rg.Hi, err)
	}
	return p
}

// runRangePartials executes every canonical range of the spec on its
// own and returns the partials in range order.
func runRangePartials(t *testing.T, spec ensemble.Spec, workers int) []*ensemble.Partial {
	t.Helper()
	var out []*ensemble.Partial
	for _, rg := range ensemble.PlanRanges(spec.Replicates) {
		out = append(out, runRange(t, spec, rg, workers))
	}
	return out
}

// foldPartials left-folds partials in ascending range order, zeroing
// elapsed times first so comparisons are over the deterministic surface.
func foldPartials(t *testing.T, parts []*ensemble.Partial) *ensemble.Partial {
	t.Helper()
	folded := parts[0].Clone()
	for _, p := range parts[1:] {
		if err := folded.Merge(p); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	return folded
}

// TestPartialRoundTrip checks Unmarshal(Marshal(x)) ≡ x for real
// executed partials, including the embedded sketch.
func TestPartialRoundTrip(t *testing.T) {
	spec := pllSpec(500, 40, 7)
	for _, p := range runRangePartials(t, spec, 4) {
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back ensemble.Partial
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(*p, back) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, *p)
		}
		// The round-tripped partial must also re-marshal to identical bytes.
		data2, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(data) != string(data2) {
			t.Fatal("re-marshaled bytes differ")
		}
	}
	// Empty partial round-trips too (a lease can cover an all-dropped range
	// only transiently, but the wire format must still be total).
	empty := ensemble.NewPartial(3, 11)
	data, err := empty.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	var back ensemble.Partial
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if !reflect.DeepEqual(*empty, back) {
		t.Fatalf("empty round trip mismatch: %+v vs %+v", back, *empty)
	}
}

// TestSketchRoundTrip exercises the standalone sketch codec across the
// compaction boundary (more values than the sketch capacity).
func TestSketchRoundTrip(t *testing.T) {
	spec := pllSpec(300, 600, 3) // 600 replicates > sketch cap 256 → compacted levels
	parts := runRangePartials(t, spec, 8)
	sk := foldPartials(t, parts).Sketch
	if sk.Count() != 600 {
		t.Fatalf("sketch count = %d, want 600", sk.Count())
	}
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back ensemble.Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*sk, back) {
		t.Fatal("sketch round trip mismatch")
	}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
	if !reflect.DeepEqual(sk.Quantiles(qs), back.Quantiles(qs)) {
		t.Fatal("round-tripped sketch answers different quantiles")
	}
}

// TestMergedRangesMatchSequential is the cluster correctness theorem in
// miniature: partials computed range-by-range (as distributed workers
// would, marshalled over a wire), folded in ascending order, render
// Aggregates bit-identical to one sequential single-node ensemble run.
func TestMergedRangesMatchSequential(t *testing.T) {
	spec := pllSpec(800, 100, 11)
	res, err := ensemble.Run(context.Background(), spec, ensemble.Options{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var wire []*ensemble.Partial
	for _, p := range runRangePartials(t, spec, 2) {
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		back := &ensemble.Partial{}
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		wire = append(wire, back)
	}
	folded := foldPartials(t, wire)
	if folded.Lo != 0 || folded.Hi != 100 || folded.Count != 100 {
		t.Fatalf("fold covers [%d,%d) count %d, want [0,100) count 100",
			folded.Lo, folded.Hi, folded.Count)
	}
	got := folded.Aggregates(100, false)
	if !reflect.DeepEqual(got, res.Aggregates) {
		t.Fatalf("merged-range aggregates differ from sequential run:\n got %+v\nwant %+v",
			got, res.Aggregates)
	}
}

// TestRunRangesMatchesRunRange checks the pipelined block executor
// produces the same partials as running each range on its own.
func TestRunRangesMatchesRunRange(t *testing.T) {
	spec := pllSpec(600, 48, 13)
	want := runRangePartials(t, spec, 3)
	var got []*ensemble.Partial
	err := ensemble.RunRanges(context.Background(), spec, ensemble.PlanRanges(48), 5,
		func(p *ensemble.Partial) bool {
			got = append(got, p)
			return false
		})
	if err != nil {
		t.Fatalf("RunRanges: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunRanges delivered %d partials, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i].Clone(), got[i].Clone()
		w.ElapsedMillis, g.ElapsedMillis = 0, 0
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("range %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestPartialUnmarshalRejects feeds the decoder systematically damaged
// payloads: every truncation length, bit flips in every field, and
// structural lies the validator must catch.
func TestPartialUnmarshalRejects(t *testing.T) {
	spec := pllSpec(400, 24, 5)
	p := runRangePartials(t, spec, 4)[0]
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	for n := 0; n < len(data); n++ {
		var back ensemble.Partial
		if err := back.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("accepted truncation to %d of %d bytes", n, len(data))
		}
	}
	var back ensemble.Partial
	if err := back.UnmarshalBinary(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("accepted trailing byte")
	}
	if err := back.UnmarshalBinary(nil); err == nil {
		t.Fatal("accepted empty payload")
	}

	corrupt := func(name string, mutate func([]byte)) {
		t.Helper()
		c := append([]byte{}, data...)
		mutate(c)
		var v ensemble.Partial
		if err := v.UnmarshalBinary(c); err == nil {
			t.Fatalf("accepted corrupt payload: %s", name)
		}
	}
	corrupt("bad version", func(b []byte) { b[0] = 0xff })
	corrupt("inverted range", func(b []byte) { b[1], b[5] = 200, 0 }) // lo=200 > hi
	corrupt("count beyond range", func(b []byte) { b[9] = 0xff })
	corrupt("stabilized beyond count", func(b []byte) { b[13] = 0xff })
	corrupt("NaN mean", func(b []byte) {
		for i := 17; i < 25; i++ {
			b[i] = 0xff
		}
	})
	corrupt("negative m2", func(b []byte) { b[32] |= 0x80 }) // sign bit of m2
	corrupt("sketch count mismatch", func(b []byte) { b[70] ^= 1 })
}

// TestMergeValidation pins Merge's adjacency requirement and the empty
// edge cases.
func TestMergeValidation(t *testing.T) {
	a := ensemble.NewPartial(0, 8)
	b := ensemble.NewPartial(16, 24)
	if err := a.Merge(b); err == nil {
		t.Fatal("merged non-adjacent ranges")
	}
	// Empty + empty extends the range and nothing else.
	c := ensemble.NewPartial(8, 16)
	if err := a.Merge(c); err != nil {
		t.Fatalf("merge adjacent empties: %v", err)
	}
	if a.Lo != 0 || a.Hi != 16 || a.Count != 0 {
		t.Fatalf("empty merge produced %+v", a)
	}
	if !math.IsInf(a.Min, 1) || !math.IsInf(a.Max, -1) {
		t.Fatalf("empty merge disturbed extrema: %+v", a)
	}
}

// FuzzPartialUnmarshal asserts the binary decoder never panics and,
// when it does accept a payload, accepts a self-consistent partial that
// re-marshals to the identical bytes.
func FuzzPartialUnmarshal(f *testing.F) {
	spec := pllSpec(200, 16, 3)
	p := runRange(f, spec, ensemble.Range{Lo: 0, Hi: 16}, 4)
	seed, err := p.MarshalBinary()
	if err != nil {
		f.Fatalf("marshal: %v", err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(seed[:len(seed)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var v ensemble.Partial
		if err := v.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted partial fails to re-marshal: %v", err)
		}
		if string(out) != string(data) {
			t.Fatal("accepted payload is not canonical (re-marshal differs)")
		}
	})
}

// FuzzSketchUnmarshal is the same property for the standalone sketch
// codec.
func FuzzSketchUnmarshal(f *testing.F) {
	spec := pllSpec(200, 16, 3)
	p := runRange(f, spec, ensemble.Range{Lo: 0, Hi: 16}, 4)
	seed, err := p.Sketch.MarshalBinary()
	if err != nil {
		f.Fatalf("marshal: %v", err)
	}
	f.Add(seed)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var s ensemble.Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted sketch fails to re-marshal: %v", err)
		}
		if string(out) != string(data) {
			t.Fatal("accepted payload is not canonical (re-marshal differs)")
		}
	})
}
