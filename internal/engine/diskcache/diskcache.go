// Package diskcache persists engine results across processes: a
// content-addressed, disk-backed store keyed exactly like the engine's
// in-memory cache (engine.Key strings), intended to be layered under the
// singleflight memory cache via engine.Config.Store.
//
// Entry format. Each entry is one file named after the FNV-1a hash of its
// key, holding a gob stream of a versioned envelope {Version, Key, Value}.
// Value is an interface; every concrete type that flows
// through the store must be gob.Register-ed by the package that produces it
// (experiments registers *report.Document, report registers Element,
// workload registers SimRun). Bump envelopeVersion whenever the envelope
// layout or the meaning of cached values changes: readers treat any other
// version as a miss and drop the file, so stale caches self-heal instead
// of poisoning new binaries.
//
// Integrity. Put appends a trailer after the gob stream: sumMagic, then
// the big-endian CRC-32 (IEEE) of the gob bytes. Get drops an entry whose
// checksum does not match, so a flipped bit inside a cached string or
// number reads as a miss instead of a wrong value. Entries without the
// trailer (written before it existed) still decode; gob ignores the
// trailing bytes, so older binaries read new entries too.
//
// Failure model. The store is strictly best-effort and must never fail a
// job: corrupt, truncated, stale-version, or key-mismatched entries are
// misses (and are unlinked so the slot is rewritten); unencodable values
// are skipped on Put. Writes go to a temp file in the cache directory and
// are renamed into place, so concurrent processes sharing one directory
// see either the old entry or the complete new one, never a torn write.
//
// Capacity. The store keeps the total entry size under a byte cap
// (Options.MaxBytes, default DefaultMaxBytes), evicting the
// least-recently-used entries (by file mtime, which Get refreshes) after
// each write. The cap is enforced per process: concurrent writers may
// transiently overshoot, which the next Put repairs.
//
// Entries never expire: a cached value is deterministic in its key, so
// age alone never makes one wrong, and envelopeVersion retires values
// whose meaning changed.
package diskcache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// envelopeVersion tags every entry file; see the package comment for
	// when to bump it. v2 entries that still carry a WrittenAt field
	// decode unchanged: gob skips fields the envelope lacks.
	envelopeVersion = 2
	// suffix marks entry files; anything else in the directory is ignored.
	suffix = ".gob"
	// tmpPrefix/tmpSuffix mark in-flight Put temp files. Open sweeps ones
	// older than tmpMaxAge — leftovers from killed processes — while
	// sparing recent ones that a live process may be about to rename.
	tmpPrefix = "put-"
	tmpSuffix = ".tmp"
	tmpMaxAge = time.Hour
	// sumMagic opens the integrity trailer; see the package comment.
	sumMagic = "msc1"
)

// DefaultMaxBytes is the byte cap applied when Options.MaxBytes <= 0.
const DefaultMaxBytes = 1 << 30

// envelope is the on-disk entry layout.
type envelope struct {
	Version int
	Key     string
	Value   any
}

// Options tunes Open.
type Options struct {
	// MaxBytes caps the total size of entry files; <= 0 selects
	// DefaultMaxBytes.
	MaxBytes int64
	// Log, when non-nil, receives one line the first time each failure
	// kind occurs (envelope write, unencodable value) —
	// once per kind, not per operation, so a dead disk degrades quietly
	// instead of flooding stderr at request rate. The counters in Stats
	// carry the ongoing tally.
	Log *log.Logger
	// Hooks, when set, intercept entry-file I/O. They exist for
	// deterministic fault injection (internal/faults wires them) and are
	// no-ops when nil.
	Hooks Hooks
}

// Hooks intercepts the store's entry-file I/O. Both funcs may return
// the input unchanged (pass-through), mutated bytes (corruption — the
// store writes or decodes whatever comes back, exercising the envelope
// decoder's self-healing), or an error (the operation fails as an
// infrastructure fault: an ENOSPC-style write failure, an unreadable
// file). Hooks never see keys' values or alter which key an operation
// targets.
type Hooks struct {
	// WrapPut runs on the encoded envelope bytes before the temp-file
	// write. An error fails the Put (counted in Stats.WriteErrs).
	WrapPut func(key string, encoded []byte) ([]byte, error)
	// WrapGet runs on the raw bytes read for an entry before decoding.
	// An error fails the Get as an infrastructure fault, not a miss.
	WrapGet func(key string, raw []byte) ([]byte, error)
}

// Stats counts store traffic since Open. Lookup hit/miss counts live in
// engine.Stats (StoreHits/StoreMisses); these are the store's own write-
// and health-side counters.
type Stats struct {
	Puts      uint64 // entries written
	PutSkips  uint64 // writes skipped (unencodable value — a value problem, not a store fault)
	WriteErrs uint64 // envelope writes that failed on file I/O (temp create/write/close/rename)
	Evictions uint64 // entries removed to stay under the byte cap
	Dropped   uint64 // corrupt/stale/mismatched entries removed by Get
}

// entry is the in-memory index record for one entry file.
type entry struct {
	size  int64
	mtime time.Time
}

// Store is a disk-backed engine.Store. It is safe for concurrent use, and
// multiple Stores (in one or several processes) may share a directory.
type Store struct {
	dir string
	max int64

	log   *log.Logger
	hooks Hooks
	// log-once guards: a failing disk fails at request rate, but one
	// line per failure kind is all an operator needs — Stats carries the
	// count.
	logEncodeOnce sync.Once
	logWriteOnce  sync.Once

	mu      sync.Mutex
	entries map[string]entry // file name -> info
	total   int64
	stats   Stats
}

// Open creates dir if needed, indexes any existing entries, and returns a
// ready store.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	max := opts.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	s := &Store{dir: dir, max: max, entries: map[string]entry{},
		log: opts.Log, hooks: opts.Hooks}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) && strings.HasSuffix(name, tmpSuffix) {
			// Orphaned temp from a killed writer: invisible to the byte
			// cap, so reap it once it is clearly abandoned.
			if fi, err := de.Info(); err == nil && time.Since(fi.ModTime()) > tmpMaxAge {
				_ = os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue // raced with another process's eviction
		}
		s.entries[name] = entry{size: fi.Size(), mtime: fi.ModTime()}
		s.total += fi.Size()
	}
	return s, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Size returns the indexed entry count and total bytes.
func (s *Store) Size() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.total
}

// fileName maps a cache key to its entry file name. Keys are hashed so any
// key string is filesystem-safe; the envelope stores the full key, so a
// hash collision reads as a miss, never as a wrong value.
func fileName(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("%016x%s", h.Sum64(), suffix)
}

// Get implements engine.Store: it returns the stored value for key, or
// (nil, false) on any miss — absent, unreadable, corrupt, stale-version,
// or key-mismatched entries all read as misses, and the broken ones are
// unlinked so the next Put rewrites them.
func (s *Store) Get(key string) (any, bool) {
	v, ok, _ := s.GetE(key)
	return v, ok
}

// GetE is Get with the infrastructure-fault channel exposed: a missing
// entry is (nil, false, nil), but an unreadable file or a failing read
// hook is (nil, false, err) — the signal the circuit breaker in
// internal/faults trips on. Corrupt, stale, or mismatched entries stay
// plain misses: they are dropped and self-heal on the next Put, which
// is the store working as designed, not failing.
func (s *Store) GetE(key string) (any, bool, error) {
	name := fileName(key)
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if s.hooks.WrapGet != nil {
		if data, err = s.hooks.WrapGet(key, data); err != nil {
			return nil, false, err
		}
	}
	data, sumOK := checkSum(data)
	var env envelope
	if !sumOK || gob.NewDecoder(bytes.NewReader(data)).Decode(&env) != nil ||
		env.Version != envelopeVersion || env.Key != key {
		s.drop(name)
		return nil, false, nil
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU recency bump
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		e.mtime = now
		s.entries[name] = e
	}
	s.mu.Unlock()
	return env.Value, true, nil
}

// checkSum strips the integrity trailer from entry bytes and reports
// whether the checksum matches. Bytes without a trailer pass unchanged:
// an entry from before the trailer, or one whose trailer magic was
// damaged, which leaves the gob bytes ahead of it intact.
func checkSum(data []byte) ([]byte, bool) {
	n := len(data) - len(sumMagic) - 4
	if n < 0 || string(data[n:n+len(sumMagic)]) != sumMagic {
		return data, true
	}
	body := data[:n]
	return body, binary.BigEndian.Uint32(data[n+len(sumMagic):]) == crc32.ChecksumIEEE(body)
}

// drop unlinks a broken entry, forgets it, and counts it in Dropped.
func (s *Store) drop(name string) {
	_ = os.Remove(filepath.Join(s.dir, name))
	s.mu.Lock()
	if e, ok := s.entries[name]; ok {
		s.total -= e.size
		delete(s.entries, name)
	}
	s.stats.Dropped++
	s.mu.Unlock()
}

// Put implements engine.Store: it persists val under key with an atomic
// write-rename, then evicts least-recently-used entries until the store is
// back under its byte cap. Failures are recorded in Stats and otherwise
// silent — the cache is best-effort by contract.
func (s *Store) Put(key string, val any) { _ = s.PutE(key, val) }

// PutE is Put with the infrastructure-fault channel exposed: file-I/O
// failures (temp create/write/close/rename, or a failing write hook)
// are counted in Stats.WriteErrs and returned — the breaker's trip
// signal. An unencodable value returns nil: that is a property of the
// value, not of the disk, and is counted as a PutSkip instead.
func (s *Store) PutE(key string, val any) error {
	var buf bytes.Buffer
	env := envelope{Version: envelopeVersion, Key: key, Value: val}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		s.mu.Lock()
		s.stats.PutSkips++
		s.mu.Unlock()
		s.logEncodeOnce.Do(func() { s.logf("diskcache: put skipped (unencodable value; further skips counted silently): %v", err) })
		return nil
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	data := binary.BigEndian.AppendUint32(append(buf.Bytes(), sumMagic...), sum)
	if s.hooks.WrapPut != nil {
		var err error
		if data, err = s.hooks.WrapPut(key, data); err != nil {
			return s.writeFail(err)
		}
	}
	name := fileName(key)
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*"+tmpSuffix)
	if err != nil {
		return s.writeFail(err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return s.writeFail(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return s.writeFail(err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		_ = os.Remove(tmp.Name())
		return s.writeFail(err)
	}

	size := int64(len(data))
	s.mu.Lock()
	if old, ok := s.entries[name]; ok {
		s.total -= old.size
	}
	s.entries[name] = entry{size: size, mtime: time.Now()}
	s.total += size
	s.stats.Puts++
	victims := s.evictLocked(name)
	s.mu.Unlock()
	for _, v := range victims {
		_ = os.Remove(filepath.Join(s.dir, v))
	}
	return nil
}

// writeFail records one envelope write failure: counted always, logged
// once.
func (s *Store) writeFail(err error) error {
	s.mu.Lock()
	s.stats.WriteErrs++
	s.mu.Unlock()
	s.logWriteOnce.Do(func() { s.logf("diskcache: envelope write failed (further failures counted silently): %v", err) })
	return err
}

// logf emits one line to the configured logger, discarding when none.
func (s *Store) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

// evictLocked removes index records oldest-first (mtime, then name for a
// deterministic tie-break) until total <= max, sparing keep — the entry
// just written, so a single oversized value cannot evict itself into a
// write/evict loop. It returns the file names for the caller to unlink
// outside the lock.
func (s *Store) evictLocked(keep string) []string {
	if s.total <= s.max {
		return nil
	}
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		if n != keep {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := s.entries[names[i]], s.entries[names[j]]
		if !ei.mtime.Equal(ej.mtime) {
			return ei.mtime.Before(ej.mtime)
		}
		return names[i] < names[j]
	})
	var victims []string
	for _, n := range names {
		if s.total <= s.max {
			break
		}
		s.total -= s.entries[n].size
		delete(s.entries, n)
		s.stats.Evictions++
		victims = append(victims, n)
	}
	return victims
}
