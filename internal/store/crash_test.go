package store

// White-box crash and corruption tests: they reach into the segment
// layout (write offsets, index locations) to place damage exactly where
// a crash or bit rot would, then assert the recovery contract — every
// acknowledged durable record is served, torn tails are cut, damaged
// footers are rebuilt, and nothing ever panics.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var testOpts = Options{SegmentBytes: 1 << 16, NoCompact: true}

func mustPut(t *testing.T, s *Store, kind Kind, key, id string, steps int) {
	t.Helper()
	if err := s.Put(kind, key, id, map[string]string{"k": key}, map[string]int{"steps": steps}); err != nil {
		t.Fatal(err)
	}
}

func steps(t *testing.T, rec Record) int {
	t.Helper()
	var p struct {
		Steps int `json:"steps"`
	}
	if err := json.Unmarshal(rec.Data, &p); err != nil {
		t.Fatalf("decoding payload: %v", err)
	}
	return p.Steps
}

// TestTornTailRecovery simulates a crash mid-commit: a partial frame at
// the tail must be dropped, the intact prefix preserved, and the next
// append must land cleanly.
func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	s, err := OpenOptions(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, KindJob, "intact", "j1", 1)
	end := s.writeOff
	segPath := s.segs[len(s.segs)-1].path
	s.Close()

	// Simulate the crash: a frame header promising more bytes than were
	// written, followed by half a payload.
	f, err := os.OpenFile(segPath, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, frameHeaderLen+10)
	binary.LittleEndian.PutUint32(torn[0:4], 500)
	binary.LittleEndian.PutUint32(torn[4:8], 0xdeadbeef)
	if _, err := f.WriteAt(torn, end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenOptions(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if re.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1 (the torn frame)", re.Dropped())
	}
	if _, ok := re.Get(KindJob, "intact"); !ok {
		t.Error("intact record lost to the torn tail")
	}
	mustPut(t, re, KindJob, "after", "j3", 3)
	re.Close()

	final, err := OpenOptions(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Dropped() != 0 {
		t.Errorf("post-recovery store still reports %d dropped frames", final.Dropped())
	}
	for _, key := range []string{"intact", "after"} {
		if _, ok := final.Get(KindJob, key); !ok {
			t.Errorf("record %q missing after recovery round-trip", key)
		}
	}
}

// fillSealed writes enough records to seal at least one segment,
// returning the store (still open).
func fillSealed(t *testing.T, path string, opts Options) (*Store, int) {
	t.Helper()
	s, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		mustPut(t, s, KindJob, fmt.Sprintf("k%d", n), fmt.Sprintf("j%d", n), n)
		n++
		if _, sealed := s.Segments(); sealed >= 1 {
			return s, n
		}
		if n > 10000 {
			t.Fatal("never sealed a segment")
		}
	}
}

// TestCorruptFrameInSealedSegment: bit rot inside a sealed segment must
// not take down the boot (the footer still indexes everything) and must
// surface as a failed read for the damaged record only.
func TestCorruptFrameInSealedSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	opts := Options{SegmentBytes: 4 << 10, NoCompact: true}
	s, n := fillSealed(t, path, opts)
	// Find a record living in the sealed segment.
	s.mu.Lock()
	var victimKey string
	var at idxEntry
	for ki, ent := range s.byKey {
		if seg := s.segByID[ent.seg]; seg != nil && seg.sealed {
			victimKey = ki[len(KindJob)+1:]
			at = ent
			break
		}
	}
	segPath := s.segByID[at.seg].path
	s.mu.Unlock()
	if victimKey == "" {
		t.Fatal("no record found in a sealed segment")
	}
	s.Close()

	f, err := os.OpenFile(segPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte; the frame CRC must catch it.
	var b [1]byte
	if _, err := f.ReadAt(b[:], at.off+frameHeaderLen+3); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at.off+frameHeaderLen+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("len = %d, want %d (footer boot must index everything)", re.Len(), n)
	}
	if _, ok := re.Get(KindJob, victimKey); ok {
		t.Errorf("corrupt record %q served", victimKey)
	}
	good := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if key == victimKey {
			continue
		}
		if rec, ok := re.Get(KindJob, key); ok && steps(t, rec) == i {
			good++
		}
	}
	if good != n-1 {
		t.Errorf("served %d intact records, want %d", good, n-1)
	}
}

// TestTruncatedFooterRebuild: a sealed segment whose footer or trailer
// was lost (crash during seal, truncation) is recovered by a frame scan
// and resealed so the next boot is cheap again.
func TestTruncatedFooterRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	opts := Options{SegmentBytes: 4 << 10, NoCompact: true}
	s, n := fillSealed(t, path, opts)
	s.mu.Lock()
	var sealedPath string
	for _, seg := range s.segs {
		if seg.sealed {
			sealedPath = seg.path
			break
		}
	}
	s.mu.Unlock()
	s.Close()

	// Chop the trailer (and part of the footer) off the sealed segment.
	fi, err := os.Stat(sealedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sealedPath, fi.Size()-trailerLen-5); err != nil {
		t.Fatal(err)
	}

	re, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != n {
		t.Fatalf("len = %d after footer loss, want %d", re.Len(), n)
	}
	for i := 0; i < n; i++ {
		if rec, ok := re.Get(KindJob, fmt.Sprintf("k%d", i)); !ok || steps(t, rec) != i {
			t.Fatalf("record k%d lost or wrong after footer rebuild", i)
		}
	}
	re.Close()

	// The rebuild resealed the segment: the next boot reads footers.
	again, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.sealedBoots == 0 {
		t.Error("resealed segment not booted from its footer")
	}
	if again.Len() != n {
		t.Errorf("len = %d on the post-rebuild boot, want %d", again.Len(), n)
	}
}

// TestCompactionDropsSuperseded: overwriting a small keyset across
// sealed segments must trigger compaction, and the rewritten segments
// must keep serving exactly the newest records.
func TestCompactionDropsSuperseded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	opts := Options{SegmentBytes: 4 << 10}
	s, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	round := 0
	for s.Compactions() == 0 {
		for k := 0; k < keys; k++ {
			mustPut(t, s, KindJob, fmt.Sprintf("k%d", k), fmt.Sprintf("j%d", k), round*keys+k)
		}
		round++
		if round > 2000 {
			t.Fatal("compaction never triggered")
		}
	}
	// Wait out any in-flight compaction, then check the current view.
	s.compactWG.Wait()
	want := map[string]int{}
	for k := 0; k < keys; k++ {
		rec, ok := s.Get(KindJob, fmt.Sprintf("k%d", k))
		if !ok {
			t.Fatalf("key k%d lost after compaction", k)
		}
		want[fmt.Sprintf("k%d", k)] = steps(t, rec)
	}
	s.Close()

	re, err := OpenOptions(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != keys {
		t.Fatalf("len = %d after compaction + reopen, want %d", re.Len(), keys)
	}
	for key, wantSteps := range want {
		rec, ok := re.Get(KindJob, key)
		if !ok || steps(t, rec) != wantSteps {
			t.Fatalf("record %q wrong after compaction + reopen", key)
		}
	}
}

// TestScanInvalidatedByCompaction: a scan that straddles a compaction
// must fail with ErrScanInvalidated rather than serve a moved frame,
// and a stale cursor must be rejected the same way.
func TestScanInvalidatedByCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.store")
	s, err := OpenOptions(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		mustPut(t, s, KindJob, fmt.Sprintf("k%d", i), fmt.Sprintf("j%d", i), i)
	}
	sc, err := s.Scan(KindJob, "")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() {
		t.Fatal(sc.Err())
	}
	cursor := sc.Cursor()

	// Simulate what a compaction swap does to scans.
	s.mu.Lock()
	s.generation++
	s.mu.Unlock()

	for sc.Next() {
	}
	if sc.Err() != ErrScanInvalidated {
		t.Errorf("mid-scan error = %v, want ErrScanInvalidated", sc.Err())
	}
	if _, err := s.Scan(KindJob, cursor); err != ErrScanInvalidated {
		t.Errorf("stale cursor error = %v, want ErrScanInvalidated", err)
	}
}

// TestMigrationCrashWindows exercises the two interrupted-migration
// states Open must finish: scratch complete but not installed, and v1
// moved aside with the scratch missing.
func TestMigrationCrashWindows(t *testing.T) {
	writeV1 := func(t *testing.T, path string) {
		rec := Record{Kind: KindJob, Key: "k", ID: "j",
			Spec: json.RawMessage(`{}`), Data: json.RawMessage(`{"steps":1}`),
			SavedAt: time.Unix(1000, 0).UTC()}
		line, _ := json.Marshal(rec)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("between-renames", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		writeV1(t, path)
		recs, _, err := scanV1(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeSegments(path+".migrate.tmp", recs, testOpts.withDefaults()); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path, path+".v1.bak"); err != nil {
			t.Fatal(err)
		}
		// Crash here: scratch + backup exist, store path missing.
		s, err := OpenOptions(path, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !s.Migrated() || s.Len() != 1 {
			t.Fatalf("migrated=%v len=%d after finishing interrupted migration", s.Migrated(), s.Len())
		}
	})

	t.Run("backup-only", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		writeV1(t, path+".v1.bak")
		// Crash with only the moved-aside v1 file: restore and migrate.
		s, err := OpenOptions(path, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !s.Migrated() || s.Len() != 1 {
			t.Fatalf("migrated=%v len=%d after backup-only recovery", s.Migrated(), s.Len())
		}
	})
}

// FuzzSegmentReplay mutates (and truncates) segment files of a small
// store and reopens it: whatever the damage, Open must never panic and
// never serve wrong data — every key either reads back exactly or is
// absent — and the store must keep accepting appends.
func FuzzSegmentReplay(f *testing.F) {
	f.Add(uint32(100), byte(0xff), uint16(0), false)
	f.Add(uint32(8), byte(0x01), uint16(0), true)   // segment header
	f.Add(uint32(0), byte(0), uint16(25), true)     // truncate into the trailer
	f.Add(uint32(12), byte(0x80), uint16(0), false) // frame CRC region
	f.Add(uint32(4096), byte(0x55), uint16(100), true)
	f.Fuzz(func(t *testing.T, pos uint32, val byte, chop uint16, hitSealed bool) {
		path := filepath.Join(t.TempDir(), "results.store")
		opts := Options{SegmentBytes: 4 << 10, NoCompact: true}
		s, err := OpenOptions(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		const n = 40
		want := map[string]int{}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i%20) // every key written twice: supersedes present
			mustPut(t, s, KindJob, key, "j"+key, i)
			want[key] = i
		}
		s.mu.Lock()
		var target string
		for _, seg := range s.segs {
			if seg.sealed == hitSealed {
				target = seg.path
			}
		}
		s.mu.Unlock()
		s.Close()
		if target == "" {
			t.Skip("no segment in the requested state")
		}

		fh, err := os.OpenFile(target, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := fh.Stat()
		size := fi.Size()
		if size > 0 {
			if _, err := fh.WriteAt([]byte{val}, int64(pos)%size); err != nil {
				t.Fatal(err)
			}
			if chop > 0 {
				newSize := size - int64(chop)%size
				if err := fh.Truncate(newSize); err != nil {
					t.Fatal(err)
				}
			}
		}
		fh.Close()

		re, err := OpenOptions(path, opts)
		if err != nil {
			return // a clearly-corrupt store may refuse to open; it must not panic
		}
		for key, w := range want {
			rec, ok := re.Get(KindJob, key)
			if !ok {
				continue // damaged or cut away: absence is the allowed outcome
			}
			if rec.Key != key || rec.ID != "j"+key {
				t.Fatalf("key %q served foreign record %+v", key, rec)
			}
			if got := steps(t, rec); got != w && got != w-20 {
				// w-20: the first write of a twice-written key is legal
				// if the supersede fell in the damaged region.
				t.Fatalf("key %q: steps = %d, want %d (or stale %d)", key, got, w, w-20)
			}
		}
		if err := re.Put(KindJob, "post-damage", "jpd", nil, map[string]int{"steps": 1}); err != nil {
			t.Fatalf("store unusable after recovery: %v", err)
		}
		re.Close()
	})
}

// FuzzV1Migration mutates (and truncates) a small v1 JSONL store and
// opens it, which migrates it in place. Whatever the damage, Open must
// never panic; after a successful open every key serves exactly the value
// a v1 replay of the damaged file would (last intact line per key wins,
// torn or corrupt lines dropped) and is absent when no intact line holds
// it, and the .v1.bak backup holds the damaged file byte for byte.
func FuzzV1Migration(f *testing.F) {
	f.Add(uint32(0), byte('x'), uint16(0))     // break the first line
	f.Add(uint32(40), byte('7'), uint16(0))    // inside a line
	f.Add(uint32(0), byte('{'), uint16(1))     // drop the final newline: torn tail
	f.Add(uint32(130), byte('\n'), uint16(90)) // split a line, cut mid-record
	f.Add(uint32(9), byte('b'), uint16(0))     // rename a kind
	f.Fuzz(func(t *testing.T, pos uint32, val byte, chop uint16) {
		path := filepath.Join(t.TempDir(), "results.jsonl")
		var v1 []byte
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("k%d", i%6) // every key written twice
			line, err := json.Marshal(Record{Kind: KindJob, Key: key, ID: "j" + key,
				Spec:    json.RawMessage(`{"k":"` + key + `"}`),
				Data:    json.RawMessage(fmt.Sprintf(`{"steps":%d}`, i)),
				SavedAt: time.Unix(int64(1000+i), 0).UTC()})
			if err != nil {
				t.Fatal(err)
			}
			v1 = append(append(v1, line...), '\n')
		}
		v1[int(pos)%len(v1)] = val
		v1 = v1[:len(v1)-int(chop)%len(v1)]
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}

		// The v1 replay of the damaged bytes: complete lines only, last
		// intact record per (kind, key) wins.
		want := map[string]Record{}
		lines := strings.Split(string(v1), "\n")
		for _, line := range lines[:len(lines)-1] {
			var rec Record
			if json.Unmarshal([]byte(strings.TrimSpace(line)), &rec) != nil ||
				rec.Kind == "" || rec.Key == "" || rec.ID == "" {
				continue
			}
			if rec.SavedAt.IsZero() {
				rec.SavedAt = time.Unix(0, 0).UTC()
			}
			want[keyIndex(rec.Kind, rec.Key)] = rec
		}

		s, err := OpenOptions(path, testOpts)
		if err != nil {
			return // refusing to open is allowed; panicking is not
		}
		defer s.Close()
		if bak, err := os.ReadFile(path + ".v1.bak"); err != nil || !bytes.Equal(bak, v1) {
			t.Fatalf("v1 backup does not hold the original bytes (err %v)", err)
		}
		for ki, w := range want {
			got, ok := s.Get(w.Kind, w.Key)
			if !ok {
				t.Fatalf("key %q lost in migration: v1 value %+v", ki, w)
			}
			if got.ID != w.ID || !bytes.Equal(got.Spec, w.Spec) || !bytes.Equal(got.Data, w.Data) ||
				!got.SavedAt.Equal(w.SavedAt) {
				t.Fatalf("key %q: served %+v, v1 value %+v", ki, got, w)
			}
		}
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, ok := want[keyIndex(KindJob, key)]; ok {
				continue
			}
			if got, ok := s.Get(KindJob, key); ok {
				t.Fatalf("key %q has no intact v1 line but serves %+v", key, got)
			}
		}
	})
}
