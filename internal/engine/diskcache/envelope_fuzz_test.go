package diskcache

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
)

// encodeEnvelope builds valid on-disk entry bytes for corpus seeding.
func encodeEnvelope(t testing.TB, key string, val any) []byte {
	t.Helper()
	var buf bytes.Buffer
	env := envelope{Version: envelopeVersion, Key: key, Value: val}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncatedEnvelopeAnyPrefixIsMiss walks every strict prefix of a
// valid entry — each one a possible partial write cut off by a crash —
// and requires a plain dropped-entry miss: never a panic, never an
// error, never a value.
func TestTruncatedEnvelopeAnyPrefixIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	data := encodeEnvelope(t, "k", testVal{N: 42, S: "answer"})
	path := filepath.Join(dir, fileName("k"))
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.GetE("k")
		if ok || err != nil {
			t.Fatalf("prefix %d/%d: GetE = (%v, %v, %v), want miss", n, len(data), v, ok, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("prefix %d: truncated entry not dropped", n)
		}
	}
	if st := s.Stats(); st.Dropped != uint64(len(data)) {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, len(data))
	}
}

// FuzzEnvelopeRead feeds arbitrary bytes — seeded with a valid entry,
// bit-flipped variants, and classic junk — through the on-disk entry
// path. The decoder's contract under any input: no panic, no
// infrastructure error (garbage is a miss, not a fault), and when the
// read misses, the broken file is unlinked so the slot self-heals and
// the next Put round-trips.
func FuzzEnvelopeRead(f *testing.F) {
	valid := encodeEnvelope(f, "k", testVal{N: 42, S: "answer"})
	f.Add(valid)
	for _, pos := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := open(t, dir, Options{})
		path := filepath.Join(dir, fileName("k"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, err := s.GetE("k")
		if err != nil {
			t.Fatalf("GetE returned an infrastructure error for decodable-or-garbage bytes: %v", err)
		}
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("missed entry not dropped")
			}
		}
		// Whatever the bytes were, the slot must stay serviceable.
		want := testVal{N: 7, S: "heal"}
		if err := s.PutE("k", want); err != nil {
			t.Fatalf("PutE after read: %v", err)
		}
		if v, ok, err := s.GetE("k"); !ok || err != nil || v != want {
			t.Fatalf("round trip after read = (%v, %v, %v)", v, ok, err)
		}
	})
}
