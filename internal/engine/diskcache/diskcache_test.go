package diskcache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testVal is the cached payload type used throughout the tests.
type testVal struct {
	N int
	S string
}

func init() { gob.Register(testVal{}) }

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	want := testVal{N: 42, S: "answer"}
	s.Put("key-1", want)
	got, ok := s.Get("key-1")
	if !ok {
		t.Fatal("fresh entry missed")
	}
	if got != want {
		t.Fatalf("got %#v, want %#v", got, want)
	}
	if st := s.Stats(); st.Puts != 1 || st.PutSkips != 0 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("absent key hit")
	}
}

// TestReopenSeesEntries is the cross-process shape: a second Store over
// the same directory serves the first one's entries and accounts for
// their size.
func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	s1.Put("k", testVal{N: 1})

	s2 := open(t, dir, Options{})
	if v, ok := s2.Get("k"); !ok || v != (testVal{N: 1}) {
		t.Fatalf("reopened store: %v/%v", v, ok)
	}
	entries, size := s2.Size()
	if entries != 1 || size == 0 {
		t.Errorf("reopened index = %d entries / %d bytes", entries, size)
	}
}

// TestCorruptedEntryIsMiss overwrites an entry with garbage: the read must
// be a clean miss, the broken file must be unlinked, and a subsequent Put
// must repopulate the slot.
func TestCorruptedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("k", testVal{N: 1})
	path := filepath.Join(dir, fileName("k"))
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("k"); ok {
		t.Fatal("corrupt entry returned a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry not unlinked: %v", err)
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}

	s.Put("k", testVal{N: 2})
	if v, ok := s.Get("k"); !ok || v != (testVal{N: 2}) {
		t.Fatalf("slot not rewritten after corruption: %v/%v", v, ok)
	}
}

// TestBitFlipInValueIsMiss flips one bit inside a cached string. The gob
// stream still decodes, so only the checksum trailer can catch it: the
// read must be a dropped-entry miss, never the mangled value.
func TestBitFlipInValueIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("k", testVal{N: 1, S: "speedup"})
	path := filepath.Join(dir, fileName("k"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("speedup"))
	if i < 0 {
		t.Fatal("value string not found in entry bytes")
	}
	data[i+3] ^= 0x01 // "speedup" -> "speddup"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); ok {
		t.Fatalf("bit-flipped entry returned a hit: %v", v)
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestEntryWithoutSumHits: an entry written before the checksum trailer
// existed (a bare gob envelope) still replays.
func TestEntryWithoutSumHits(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	want := testVal{N: 3, S: "legacy"}
	writeEnvelope(t, dir, fileName("k"), envelope{Version: envelopeVersion, Key: "k", Value: want})
	if v, ok := s.Get("k"); !ok || v != want {
		t.Fatalf("Get = %v/%v, want %v", v, ok, want)
	}
}

// TestWrittenAtEntryHits: a v2 entry in the layout that still carried
// the Put time (Version, Key, WrittenAt, Value) with its checksum
// trailer replays as a hit; gob skips the field the envelope lacks. The
// entry is a year old, and entries never expire.
func TestWrittenAtEntryHits(t *testing.T) {
	type writtenAtEnvelope struct {
		Version   int
		Key       string
		WrittenAt int64
		Value     any
	}
	dir := t.TempDir()
	s := open(t, dir, Options{})
	want := testVal{N: 5, S: "timestamped"}
	var buf bytes.Buffer
	env := writtenAtEnvelope{Version: 2, Key: "k", WrittenAt: time.Now().Add(-365 * 24 * time.Hour).UnixNano(), Value: want}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	data := binary.BigEndian.AppendUint32(append(buf.Bytes(), sumMagic...), crc32.ChecksumIEEE(buf.Bytes()))
	if err := os.WriteFile(filepath.Join(dir, fileName("k")), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); !ok || v != want {
		t.Fatalf("Get = %v/%v, want %v", v, ok, want)
	}
	if st := s.Stats(); st.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", st.Dropped)
	}
}

// TestTruncatedEntryIsMiss cuts an entry short mid-stream.
func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	s.Put("k", testVal{N: 1, S: "long enough to truncate meaningfully"})
	path := filepath.Join(dir, fileName("k"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("truncated entry returned a hit")
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

// writeEnvelope hand-crafts an entry file, bypassing Put.
func writeEnvelope(t *testing.T, dir string, name string, env envelope) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVersionMismatchIsMiss: an entry from a future (or past) envelope
// version reads as a miss and is dropped so the slot self-heals.
func TestVersionMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	writeEnvelope(t, dir, fileName("k"), envelope{Version: envelopeVersion + 1, Key: "k", Value: testVal{N: 9}})

	if _, ok := s.Get("k"); ok {
		t.Fatal("stale-version entry returned a hit")
	}
	if _, err := os.Stat(filepath.Join(dir, fileName("k"))); !os.IsNotExist(err) {
		t.Error("stale-version entry not unlinked")
	}
	if st := s.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestKeyMismatchIsMiss: an envelope whose stored key differs from the
// requested one (hash collision or tampering) must read as a miss, never
// as the wrong value.
func TestKeyMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	writeEnvelope(t, dir, fileName("k"), envelope{Version: envelopeVersion, Key: "other", Value: testVal{N: 9}})
	if _, ok := s.Get("k"); ok {
		t.Fatal("key-mismatched entry returned a hit")
	}
}

// TestUnencodableValueSkipped: values gob cannot encode (a channel) are
// skipped, counted, and never crash the put path.
func TestUnencodableValueSkipped(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	s.Put("k", make(chan int))
	if _, ok := s.Get("k"); ok {
		t.Fatal("unencodable value hit")
	}
	if st := s.Stats(); st.Puts != 0 || st.PutSkips != 1 {
		t.Errorf("stats = %+v, want 0 puts / 1 skip", st)
	}
}

// TestEvictionKeepsNewest caps the store far below three entries: the
// oldest entries must be evicted, the just-written one spared, and the
// index totals must stay consistent.
func TestEvictionKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 1})
	s.Put("a", testVal{N: 1})
	// Distinct mtimes make the LRU order unambiguous even on coarse
	// filesystem timestamp granularity.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, fileName("a")), past, past); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	e := s.entries[fileName("a")]
	e.mtime = past
	s.entries[fileName("a")] = e
	s.mu.Unlock()

	s.Put("b", testVal{N: 2})

	if _, ok := s.Get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if v, ok := s.Get("b"); !ok || v != (testVal{N: 2}) {
		t.Error("just-written entry was evicted")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	entries, _ := s.Size()
	if entries != 1 {
		t.Errorf("index holds %d entries, want 1", entries)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Errorf("directory holds %d files, want 1", len(des))
	}
}

// TestOpenReapsAbandonedTempFiles: temp files orphaned by a killed writer
// are swept on Open once stale, while fresh ones (a live writer mid-Put)
// are spared.
func TestOpenReapsAbandonedTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"dead"+tmpSuffix)
	fresh := filepath.Join(dir, tmpPrefix+"live"+tmpSuffix)
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	open(t, dir, Options{})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file reaped: %v", err)
	}
}

// TestGetRefreshesRecency: a Get must protect an entry from the next
// eviction round (LRU, not FIFO).
func TestGetRefreshesRecency(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxBytes: 1 << 20})
	s.Put("a", testVal{N: 1})
	_, one := s.Size() // size of one entry (a, b and c encode identically)
	s.Put("b", testVal{N: 2})
	// Age both, then touch "a" via Get so "b" becomes the LRU victim.
	past := time.Now().Add(-time.Hour)
	for _, k := range []string{"a", "b"} {
		if err := os.Chtimes(filepath.Join(dir, fileName(k)), past, past); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		e := s.entries[fileName(k)]
		e.mtime = past
		s.entries[fileName(k)] = e
		s.mu.Unlock()
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("setup get missed")
	}
	s.mu.Lock()
	s.max = 2*one + 8 // room for exactly two entries
	s.mu.Unlock()
	s.Put("c", testVal{N: 3})

	if _, ok := s.Get("a"); !ok {
		t.Error("recently-read entry was evicted before the LRU one")
	}
	if _, ok := s.Get("b"); ok {
		t.Error("LRU entry survived")
	}
}
