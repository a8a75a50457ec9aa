package diskcache

import (
	"bytes"
	"errors"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var errSynthetic = errors.New("synthetic I/O failure")

// TestWrapPutErrorCountsWriteErr: a failing write hook is an
// infrastructure fault — counted, returned by PutE, and no entry file
// lands on disk.
func TestWrapPutErrorCountsWriteErr(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Hooks: Hooks{
		WrapPut: func(key string, encoded []byte) ([]byte, error) { return nil, errSynthetic },
	}})
	if err := s.PutE("k", testVal{N: 1}); !errors.Is(err, errSynthetic) {
		t.Fatalf("PutE = %v, want errSynthetic", err)
	}
	st := s.Stats()
	if st.WriteErrs != 1 || st.Puts != 0 || st.PutSkips != 0 {
		t.Fatalf("stats = %+v, want exactly one WriteErr", st)
	}
	if _, err := os.Stat(filepath.Join(dir, fileName("k"))); !os.IsNotExist(err) {
		t.Fatalf("entry file exists after failed put: %v", err)
	}
	if n, size := s.Size(); n != 0 || size != 0 {
		t.Fatalf("failed put indexed: %d entries, %d bytes", n, size)
	}
}

// TestWrapPutCorruptionSelfHeals: a hook that mangles the envelope on
// the way to disk produces an entry the reader drops as a miss — the
// decoder's self-healing, exercised end to end.
func TestWrapPutCorruptionSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Hooks: Hooks{
		WrapPut: func(key string, encoded []byte) ([]byte, error) {
			return encoded[:len(encoded)/2], nil // partial write
		},
	}})
	if err := s.PutE("k", testVal{N: 1}); err != nil {
		t.Fatalf("corrupting put failed: %v", err)
	}
	if v, ok, err := s.GetE("k"); ok || err != nil {
		t.Fatalf("GetE on truncated entry = (%v, %v, %v), want plain miss", v, ok, err)
	}
	st := s.Stats()
	if st.Dropped != 1 || st.WriteErrs != 0 {
		t.Fatalf("stats = %+v, want one Dropped, no WriteErrs", st)
	}
	if _, err := os.Stat(filepath.Join(dir, fileName("k"))); !os.IsNotExist(err) {
		t.Fatal("dropped entry still on disk")
	}
}

// TestWrapGetErrorIsFaultNotMiss: a failing read hook surfaces on
// GetE's error channel and leaves the entry intact — when the fault
// clears, the entry serves again without a recompute.
func TestWrapGetErrorIsFaultNotMiss(t *testing.T) {
	dir := t.TempDir()
	fail := true
	s := open(t, dir, Options{Hooks: Hooks{
		WrapGet: func(key string, raw []byte) ([]byte, error) {
			if fail {
				return nil, errSynthetic
			}
			return raw, nil
		},
	}})
	want := testVal{N: 7}
	if err := s.PutE("k", want); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetE("k"); ok || !errors.Is(err, errSynthetic) {
		t.Fatalf("GetE under failing hook = (ok=%v, err=%v), want fault", ok, err)
	}
	if st := s.Stats(); st.Dropped != 0 {
		t.Fatalf("fault dropped the entry: %+v", st)
	}
	fail = false
	if v, ok, err := s.GetE("k"); !ok || err != nil || v != want {
		t.Fatalf("GetE after fault cleared = (%v, %v, %v)", v, ok, err)
	}
}

// TestGetEUnreadableFileIsFault: a real filesystem error that is not
// NotExist (here: the entry path is a directory) comes back on the
// error channel, distinct from a miss.
func TestGetEUnreadableFileIsFault(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := os.Mkdir(filepath.Join(dir, fileName("k")), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetE("k"); ok || err == nil {
		t.Fatalf("GetE on unreadable entry = (ok=%v, err=%v), want fault", ok, err)
	}
	if _, ok, err := s.GetE("absent"); ok || err != nil {
		t.Fatalf("GetE on absent entry = (ok=%v, err=%v), want plain miss", ok, err)
	}
}

// TestWriteErrLoggedOnce: a dead disk fails at request rate; the log
// gets one line per failure kind while the counter keeps the tally.
func TestWriteErrLoggedOnce(t *testing.T) {
	var buf bytes.Buffer
	s := open(t, t.TempDir(), Options{
		Log: log.New(&buf, "", 0),
		Hooks: Hooks{
			WrapPut: func(key string, encoded []byte) ([]byte, error) { return nil, errSynthetic },
		},
	})
	for i := 0; i < 5; i++ {
		s.Put("k", testVal{N: i})
	}
	if st := s.Stats(); st.WriteErrs != 5 {
		t.Fatalf("WriteErrs = %d, want 5", st.WriteErrs)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 1 || !strings.Contains(buf.String(), "envelope write failed") {
		t.Fatalf("log = %q, want exactly one envelope-write line", buf.String())
	}
}

// TestUnencodableValueNotAWriteErr: encode failures stay PutSkips (a
// value problem), never WriteErrs (a disk problem) — the breaker must
// not trip on a caller handing over a channel.
func TestUnencodableValueNotAWriteErr(t *testing.T) {
	var buf bytes.Buffer
	s := open(t, t.TempDir(), Options{Log: log.New(&buf, "", 0)})
	if err := s.PutE("k", make(chan int)); err != nil {
		t.Fatalf("unencodable PutE returned %v, want nil", err)
	}
	st := s.Stats()
	if st.PutSkips != 1 || st.WriteErrs != 0 {
		t.Fatalf("stats = %+v, want one PutSkip, no WriteErrs", st)
	}
	if !strings.Contains(buf.String(), "unencodable") {
		t.Fatalf("log = %q, want unencodable-value line", buf.String())
	}
}
