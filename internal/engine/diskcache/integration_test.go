package diskcache_test

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
)

type payload struct{ N int }

func init() { gob.Register(payload{}) }

// entryFiles counts entry files on disk (ignoring temp residue, of which
// there should be none).
func entryFiles(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}

// TestEngineWarmReplayAcrossStores is the end-to-end contract: engine one
// computes and persists; a second engine over a second Store on the same
// directory replays everything without executing a single job function.
func TestEngineWarmReplayAcrossStores(t *testing.T) {
	dir := t.TempDir()
	jobs := func(executed *int) []engine.Job {
		out := make([]engine.Job, 5)
		for i := range out {
			i := i
			out[i] = engine.Job{
				ID:  fmt.Sprintf("job%d", i),
				Key: engine.Key("warm-replay", i),
				Fn: func(context.Context) (any, error) {
					*executed++
					return payload{N: i}, nil
				},
			}
		}
		return out
	}

	s1, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var coldRuns int
	e1 := engine.New(engine.Config{Workers: 1, Store: s1})
	for i, r := range e1.Run(context.Background(), jobs(&coldRuns)) {
		if r.Err != nil || r.Value != (payload{N: i}) {
			t.Fatalf("cold job %d: %+v", i, r)
		}
	}
	if coldRuns != 5 {
		t.Fatalf("cold run executed %d jobs, want 5", coldRuns)
	}

	s2, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var warmRuns int
	e2 := engine.New(engine.Config{Workers: 1, Store: s2})
	for i, r := range e2.Run(context.Background(), jobs(&warmRuns)) {
		if r.Err != nil || r.Value != (payload{N: i}) || !r.Cached {
			t.Fatalf("warm job %d: %+v", i, r)
		}
	}
	if warmRuns != 0 {
		t.Errorf("warm run executed %d jobs, want 0", warmRuns)
	}
	if st := e2.Stats(); st.StoreHits != 5 || st.Executed != 0 {
		t.Errorf("warm stats = %+v, want 5 store hits / 0 executed", st)
	}
}

// TestCancelledJobNeverPersisted: a job that observes cancellation must
// leave no trace in the cache directory, so a later run recomputes it.
func TestCancelledJobNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	s, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Workers: 1, Store: s})

	ctx, cancel := context.WithCancel(context.Background())
	res := e.Run(ctx, []engine.Job{{
		ID:  "doomed",
		Key: engine.Key("doomed"),
		Fn: func(ctx context.Context) (any, error) {
			cancel()
			<-ctx.Done()
			return payload{N: 1}, ctx.Err()
		},
	}})[0]
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("result = %+v, want context.Canceled", res)
	}
	if n := entryFiles(t, dir); n != 0 {
		t.Errorf("cancelled job left %d files in the cache dir", n)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Errorf("store recorded %d puts for a cancelled job", st.Puts)
	}
}

// TestConcurrentProcessesSharingDir models several processes (separate
// Store instances) hammering one cache directory with overlapping keys:
// no torn reads — every Get returns either a miss or the correct value.
func TestConcurrentProcessesSharingDir(t *testing.T) {
	dir := t.TempDir()
	const stores, rounds, keys = 4, 25, 8

	var wg sync.WaitGroup
	errc := make(chan error, stores)
	for si := 0; si < stores; si++ {
		s, err := diskcache.Open(dir, diskcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *diskcache.Store) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("shared-%d", k)
					s.Put(key, payload{N: k})
					if v, ok := s.Get(key); ok {
						if v != (payload{N: k}) {
							errc <- fmt.Errorf("key %s: read %v", key, v)
							return
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Whatever interleaving happened, a fresh store must read every key
	// back cleanly (all writers agreed on the values).
	s, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("shared-%d", k)
		if v, ok := s.Get(key); !ok || v != (payload{N: k}) {
			t.Errorf("final read of %s: %v/%v", key, v, ok)
		}
	}
}
