package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// fakeStore is an in-memory engine.Store that records traffic.
type fakeStore struct {
	mu   sync.Mutex
	m    map[string]any
	gets int
	puts int
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[string]any{}} }

func (f *fakeStore) Get(key string) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	v, ok := f.m[key]
	return v, ok
}

func (f *fakeStore) Put(key string, val any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.m[key] = val
}

// TestStoreHitSkipsExecution preloads the store: the job function must not
// run, the result must be marked cached, and stats must attribute the hit
// to the store.
func TestStoreHitSkipsExecution(t *testing.T) {
	st := newFakeStore()
	st.m["k"] = 42
	e := New(Config{Workers: 1, Store: st})
	res := runOne(e, context.Background(), Job{
		ID:  "job",
		Key: "k",
		Fn: func(context.Context) (any, error) {
			t.Error("job function ran despite store hit")
			return nil, nil
		},
	})
	if res.Err != nil || res.Value != 42 || !res.Cached {
		t.Fatalf("result = %+v, want cached 42", res)
	}
	s := e.Stats()
	if s.Executed != 0 || s.StoreHits != 1 || s.StoreMisses != 0 {
		t.Errorf("stats = %+v, want 0 executed, 1 store hit", s)
	}
}

// TestStoreFilledOnceAndMemoryWins runs the same key twice on one engine:
// the store is consulted and filled exactly once; the second submission is
// a pure memory hit that never reaches the store.
func TestStoreFilledOnceAndMemoryWins(t *testing.T) {
	st := newFakeStore()
	e := New(Config{Workers: 1, Store: st})
	job := Job{ID: "j", Key: "k", Fn: func(context.Context) (any, error) { return "v", nil }}
	for i := 0; i < 2; i++ {
		if res := runOne(e, context.Background(), job); res.Err != nil || res.Value != "v" {
			t.Fatalf("run %d: %+v", i, res)
		}
	}
	if st.gets != 1 || st.puts != 1 {
		t.Errorf("store traffic gets=%d puts=%d, want 1/1 (memory cache must shield the store)", st.gets, st.puts)
	}
	if v, ok := st.m["k"]; !ok || v != "v" {
		t.Errorf("store content = %v/%v, want v", v, ok)
	}
}

// TestStoreNeverSeesErrorsOrCancellations asserts the persistence filter:
// errored jobs and cancelled jobs must not be written to the store.
func TestStoreNeverSeesErrorsOrCancellations(t *testing.T) {
	st := newFakeStore()
	e := New(Config{Workers: 1, Store: st})

	boom := errors.New("boom")
	if res := runOne(e, context.Background(), Job{ID: "err", Key: "e", Fn: func(context.Context) (any, error) {
		return nil, boom
	}}); !errors.Is(res.Err, boom) {
		t.Fatalf("err job: %+v", res)
	}

	ctx, cancel := context.WithCancel(context.Background())
	if res := runOne(e, ctx, Job{ID: "cancel", Key: "c", Fn: func(ctx context.Context) (any, error) {
		cancel()
		return nil, ctx.Err()
	}}); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled job: %+v", res)
	}

	if st.puts != 0 {
		t.Errorf("store received %d puts from errored/cancelled jobs, want 0", st.puts)
	}
}

// TestStoreBypassedWhenUncacheable: DisableCache and empty keys must keep
// the store completely out of the path.
func TestStoreBypassedWhenUncacheable(t *testing.T) {
	st := newFakeStore()
	e := New(Config{Workers: 1, DisableCache: true, Store: st})
	runOne(e, context.Background(), Job{ID: "a", Key: "k", Fn: func(context.Context) (any, error) { return 1, nil }})

	e2 := New(Config{Workers: 1, Store: st})
	runOne(e2, context.Background(), Job{ID: "b", Key: "", Fn: func(context.Context) (any, error) { return 2, nil }})

	if st.gets != 0 || st.puts != 0 {
		t.Errorf("store traffic gets=%d puts=%d, want 0/0", st.gets, st.puts)
	}
}

// TestStoreSharedAcrossEngines models two processes sharing a cache: the
// second engine replays the first engine's computation without executing.
func TestStoreSharedAcrossEngines(t *testing.T) {
	st := newFakeStore()
	job := Job{ID: "j", Key: "k", Fn: func(context.Context) (any, error) { return 7, nil }}

	e1 := New(Config{Workers: 2, Store: st})
	if res := runOne(e1, context.Background(), job); res.Err != nil {
		t.Fatal(res.Err)
	}

	e2 := New(Config{Workers: 2, Store: st})
	res := runOne(e2, context.Background(), Job{ID: "j", Key: "k", Fn: func(context.Context) (any, error) {
		t.Error("second engine executed despite warm store")
		return nil, nil
	}})
	if res.Err != nil || res.Value != 7 || !res.Cached {
		t.Fatalf("warm replay = %+v, want cached 7", res)
	}
	if s := e2.Stats(); s.Executed != 0 || s.StoreHits != 1 {
		t.Errorf("second engine stats = %+v, want 0 executed / 1 store hit", s)
	}
}
