package service

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"

	"popproto/internal/registry"
)

// Frame is one recorded point of a job's census trajectory in wire
// form: JSON holds exactly the bytes json.Marshal of its Snapshot
// produces, and the trace endpoint streams them verbatim.
type Frame struct {
	Step uint64
	JSON []byte
}

// frameEncoder renders snapshots as encoding/json renders a Snapshot —
// census keys in byte order, its string escaping, its float format —
// without building a map or reflecting over one. One encoder serves one
// run on its worker goroutine; its buffers are reused across frames.
type frameEncoder struct {
	quoted map[string]string // census key → its JSON string encoding
	byName []registry.CensusEntry
	buf    []byte
}

// encode returns the frame of the election's current configuration,
// truncated to its k most populous states.
func (f *frameEncoder) encode(el registry.Election, k int) Frame {
	top, omittedStates, omittedAgents := el.TopCensus(k)
	f.byName = append(f.byName[:0], top...)
	slices.SortFunc(f.byName, func(a, b registry.CensusEntry) int { return strings.Compare(a.State, b.State) })

	step := el.Steps()
	b := append(f.buf[:0], `{"step":`...)
	b = strconv.AppendUint(b, step, 10)
	b = append(b, `,"parallelTime":`...)
	b = appendJSONFloat(b, el.ParallelTime())
	b = append(b, `,"leaders":`...)
	b = strconv.AppendInt(b, int64(el.Leaders()), 10)
	b = append(b, `,"census":{`...)
	for i, e := range f.byName {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f.quote(e.State)...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(e.Count), 10)
	}
	b = append(b, '}')
	if omittedStates != 0 {
		b = append(b, `,"omittedStates":`...)
		b = strconv.AppendInt(b, int64(omittedStates), 10)
	}
	if omittedAgents != 0 {
		b = append(b, `,"omittedAgents":`...)
		b = strconv.AppendInt(b, int64(omittedAgents), 10)
	}
	b = append(b, '}')
	f.buf = b
	return Frame{Step: step, JSON: bytes.Clone(b)}
}

// quote returns name as encoding/json encodes a string, computed once
// per name.
func (f *frameEncoder) quote(name string) string {
	q, ok := f.quoted[name]
	if !ok {
		data, err := json.Marshal(name)
		if err != nil {
			panic(err) // a string always marshals
		}
		if f.quoted == nil {
			f.quoted = make(map[string]string)
		}
		q = string(data)
		f.quoted[name] = q
	}
	return q
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
