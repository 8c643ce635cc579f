package store

// Benchmarks for the v2 store against faithful v1 baselines, written
// white-box so the replay benchmark can build its 100k-record fixture
// directly through the segment writer instead of 100k group commits.
//
// BenchmarkStore_Append compares sustained durable-append throughput:
// the v1 design (one JSON line + one fsync per record, serialized by a
// mutex) against the v2 group commit (writers batched into one
// write+fdatasync on a preallocated segment), at 1, 16, and 64
// concurrent writers.
//
// BenchmarkStore_Replay compares boot cost over a 100k-record corpus:
// the v1 full replay (scan + JSON-decode every line, rebuild the index)
// against the v2 snapshot+tail boot (decode only the sealed segments'
// footer indexes plus the unsealed tail).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// v1Store reproduces the v1 store's write path: one JSON-encoded line
// appended and fsynced per Put, under a mutex.
type v1Store struct {
	mu sync.Mutex
	f  *os.File
}

func openV1(b *testing.B, path string) *v1Store {
	b.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return &v1Store{f: f}
}

func (s *v1Store) Put(kind Kind, key, id string, spec, data any) error {
	specRaw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	dataRaw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	line, err := json.Marshal(Record{
		Kind: kind, Key: key, ID: id,
		Spec: specRaw, Data: dataRaw, SavedAt: time.Now().UTC(),
	})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		return err
	}
	return s.f.Sync()
}

// putter abstracts the two write paths so both run the same driver.
type putter interface {
	Put(kind Kind, key, id string, spec, data any) error
}

// benchAppend drives b.N durable appends across `writers` goroutines,
// each record with a unique key (no last-wins dedup, no cache effects).
// Keys are precomputed and the payloads are raw JSON so the timed region
// is the store's own write path — the caller-side marshalling both paths
// would share stays outside the measurement.
func benchAppend(b *testing.B, s putter, writers int) {
	b.Helper()
	spec := json.RawMessage(`{"protocol":"pll","n":100000,"engine":"count"}`)
	data := json.RawMessage(`{"steps":1234567,"parallelTime":12.34}`)
	keys := make([][]string, writers)
	per := b.N / writers
	extra := b.N % writers
	for w := 0; w < writers; w++ {
		n := per
		if w < extra {
			n++
		}
		keys[w] = make([]string, n)
		for i := 0; i < n; i++ {
			keys[w][i] = fmt.Sprintf("w%d-%d", w, i)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(keys []string) {
			defer wg.Done()
			for _, key := range keys {
				if err := s.Put(KindJob, key, "j"+key, spec, data); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}(keys[w])
	}
	wg.Wait()
	b.StopTimer()
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

func BenchmarkStore_Append(b *testing.B) {
	for _, writers := range []int{1, 16} {
		b.Run(fmt.Sprintf("v1fsync/w%d", writers), func(b *testing.B) {
			s := openV1(b, filepath.Join(b.TempDir(), "results.jsonl"))
			benchAppend(b, s, writers)
		})
	}
	for _, writers := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("group/w%d", writers), func(b *testing.B) {
			s, err := OpenOptions(filepath.Join(b.TempDir(), "results.store"),
				Options{NoCompact: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			benchAppend(b, s, writers)
		})
	}
}

const replayRecords = 100_000

// benchCorpus builds the replay fixture: replayRecords distinct records
// with realistic small spec/data payloads.
func benchCorpus() []Record {
	recs := make([]Record, replayRecords)
	savedAt := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i] = Record{
			Kind:    KindJob,
			Key:     fmt.Sprintf("pll n=%d engine=count seed=%d", 1000+i, i),
			ID:      fmt.Sprintf("j%08x", i),
			Spec:    json.RawMessage(fmt.Sprintf(`{"protocol":"pll","n":%d,"engine":"count","seed":%d}`, 1000+i, i)),
			Data:    json.RawMessage(fmt.Sprintf(`{"steps":%d,"parallelTime":%d.5}`, i*17, i%100)),
			SavedAt: savedAt.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return recs
}

func BenchmarkStore_Replay(b *testing.B) {
	recs := benchCorpus()

	b.Run("v1full/100k", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "results.jsonl")
		var buf []byte
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				b.Fatal(err)
			}
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The v1 boot: scan and JSON-decode every line, then
			// rebuild the in-memory index maps.
			got, dropped, err := scanV1(path)
			if err != nil || dropped != 0 {
				b.Fatalf("scan: %v (%d dropped)", err, dropped)
			}
			byKey := make(map[string]Record, len(got))
			byID := make(map[string]Record, len(got))
			for _, rec := range got {
				byKey[string(rec.Kind)+"\x00"+rec.Key] = rec
				byID[rec.ID] = rec
			}
			if len(byKey) != replayRecords || len(byID) != replayRecords {
				b.Fatalf("replayed %d/%d records", len(byKey), len(byID))
			}
		}
	})

	b.Run("v2footer/100k", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "results.store")
		// 1 MiB segments seal the corpus into ~20 footer-indexed
		// segments plus one unsealed tail.
		opts := Options{SegmentBytes: 1 << 20, NoCompact: true}.withDefaults()
		if err := writeSegments(dir, recs, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := OpenOptions(dir, Options{SegmentBytes: 1 << 20, NoCompact: true})
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != replayRecords {
				b.Fatalf("replayed %d records", s.Len())
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
		b.StopTimer()
		s, err := OpenOptions(dir, Options{NoCompact: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, sealed := s.Segments(); sealed == 0 {
			b.Fatal("fixture has no sealed segments; the footer path was not exercised")
		}
	})
}
