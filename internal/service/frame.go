package service

import (
	"encoding/binary"
	"math"
	"slices"
	"strconv"

	"popproto/internal/registry"
)

// Frame is one recorded point of a job's census trajectory, kept as a
// compact record and rendered to its wire form only when streamed:
// AppendJSON writes exactly the bytes json.Marshal of its Snapshot
// produces. The record packs the population size, the leader count, the
// two omitted counts and the census as (name index, count) pairs in the
// byte order of the names, all as uvarints, in one allocation. The
// indexes point into names, the prefix of the state table's quoted census
// names that existed when the frame was recorded; every run on that table
// shares the names, and later runs only append to them.
type Frame struct {
	Step   uint64
	names  []string
	record []byte
}

// AppendJSON appends the frame's snapshot to dst as encoding/json
// renders a Snapshot: census keys in byte order, its string escaping and
// float format, and the omitted counts only when nonzero. The parallel
// time is step/n, the division every engine's ParallelTime performs.
func (f Frame) AppendJSON(dst []byte) []byte {
	rec := f.record
	var n, leaders, omittedStates, omittedAgents uint64
	n, rec = uvarint(rec)
	leaders, rec = uvarint(rec)
	omittedStates, rec = uvarint(rec)
	omittedAgents, rec = uvarint(rec)

	b := append(dst, `{"step":`...)
	b = strconv.AppendUint(b, f.Step, 10)
	b = append(b, `,"parallelTime":`...)
	b = appendJSONFloat(b, float64(f.Step)/float64(n))
	b = append(b, `,"leaders":`...)
	b = strconv.AppendUint(b, leaders, 10)
	b = append(b, `,"census":{`...)
	for first := true; len(rec) > 0; first = false {
		var name, count uint64
		name, rec = uvarint(rec)
		count, rec = uvarint(rec)
		if !first {
			b = append(b, ',')
		}
		b = append(b, f.names[name]...)
		b = append(b, ':')
		b = strconv.AppendUint(b, count, 10)
	}
	b = append(b, '}')
	if omittedStates != 0 {
		b = append(b, `,"omittedStates":`...)
		b = strconv.AppendUint(b, omittedStates, 10)
	}
	if omittedAgents != 0 {
		b = append(b, `,"omittedAgents":`...)
		b = strconv.AppendUint(b, omittedAgents, 10)
	}
	return append(b, '}')
}

// uvarint decodes the uvarint at the front of rec and returns the rest.
func uvarint(rec []byte) (uint64, []byte) {
	v, k := binary.Uvarint(rec)
	if k <= 0 {
		panic("service: corrupt frame record")
	}
	return v, rec[k:]
}

// frameEncoder records snapshots as Frames without building a map or
// reflecting over one: the election selects the census by integer
// compares and hands over its state table's quoted names, so a frame
// records slot indexes and counts and keeps the prefix of the names it
// was recorded with. One encoder serves one run on its worker goroutine;
// its buffer is reused across frames.
type frameEncoder struct {
	buf []byte
}

// encode returns the frame of the election's current configuration,
// truncated to its k most populous states.
func (f *frameEncoder) encode(el registry.Election, k int) Frame {
	top, quoted, omittedStates, omittedAgents := el.QuotedTopCensus(k)
	b := binary.AppendUvarint(f.buf[:0], uint64(el.N()))
	b = binary.AppendUvarint(b, uint64(el.Leaders()))
	b = binary.AppendUvarint(b, uint64(omittedStates))
	b = binary.AppendUvarint(b, uint64(omittedAgents))
	for _, e := range top {
		b = binary.AppendUvarint(b, uint64(e.Slot))
		b = binary.AppendUvarint(b, uint64(e.Count))
	}
	f.buf = b
	return Frame{Step: el.Steps(), names: quoted, record: slices.Clone(b)}
}

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest representation, in exponent form only below 1e-6 or from 1e21
// up, with a one-digit negative exponent unpadded (1e-07 → 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
