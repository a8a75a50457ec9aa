package workload_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
)

// countingStore is an engine.Store that never hits and counts Puts.
type countingStore struct {
	mu   sync.Mutex
	puts int
}

func (s *countingStore) Get(string) (any, bool) { return nil, false }

func (s *countingStore) Put(string, any) {
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
}

// TestNativeRunsLeaveNoGoroutines: every native run owns its worker team
// and shuts it down before returning, so no worker outlives the run. The
// runs are timed: without timing, kmeans and fuzzy only count and start no
// team. Not parallel: a concurrent test's goroutines would move the count.
func TestNativeRunsLeaveNoGoroutines(t *testing.T) {
	ds := testData(t, 49)
	for _, w := range allWorkloads() {
		for _, th := range []int{1, 2, 4} {
			before := runtime.NumGoroutine()
			if _, err := w.RunNative(ds, th, true); err != nil {
				t.Fatalf("%s threads=%d: %v", w.Name(), th, err)
			}
			// Close has waited for every worker's Done, but an exiting
			// goroutine can stay counted for a moment after it.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%s (%v) threads=%d: %d goroutines before the run, %d after",
					w.Name(), w.Params(), th, before, after)
			}
		}
	}
}

// TestNativeProfilesEngineMatchesSerial: routing native runs through
// engine jobs (and back out of the cache) changes no profile relative to
// calling RunNative directly.
func TestNativeProfilesEngineMatchesSerial(t *testing.T) {
	ctx := context.Background()
	ds := testData(t, 46)
	threads := []int{1, 2, 3, 4}
	eng := engine.New(engine.Config{Workers: 2})
	for _, w := range allWorkloads() {
		want := make([]*trace.Profile, len(threads))
		for i, th := range threads {
			p, err := w.RunNative(ds, th, false)
			if err != nil {
				t.Fatalf("%s serial: %v", w.Name(), err)
			}
			want[i] = p
		}
		// The second engine pass is served from the memory cache.
		for pass := 0; pass < 2; pass++ {
			got, err := workload.NativeProfiles(ctx, eng, w, ds, threads, false)
			if err != nil {
				t.Fatalf("%s engine: %v", w.Name(), err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d profiles, want %d", w.Name(), len(got), len(want))
			}
			for i := range want {
				if *got[i] != *want[i] {
					t.Errorf("%s pass %d threads=%d: engine profile %+v, serial %+v",
						w.Name(), pass, threads[i], *got[i], *want[i])
				}
			}
			// Each caller owns its copy: scribbling on it must not reach
			// the cached value the next pass reads.
			got[0].Work[0] = -1
		}
	}
}

// TestNativeProfilesTimingUncached: wall-clock runs never enter either
// cache level.
func TestNativeProfilesTimingUncached(t *testing.T) {
	st := &countingStore{}
	eng := engine.New(engine.Config{Workers: 2, Store: st})
	ds := testData(t, 47)
	w := allWorkloads()[0]
	profiles, err := workload.NativeProfiles(context.Background(), eng, w, ds, []int{1, 2, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profiles {
		if p.TotalWork() == 0 {
			t.Errorf("threads=%d: empty profile", p.Threads)
		}
	}
	if n := eng.CacheLen(); n != 0 {
		t.Errorf("timing run left %d memory-cache entries, want 0", n)
	}
	if st.puts != 0 {
		t.Errorf("timing run made %d store Puts, want 0", st.puts)
	}
}

// TestNativeProfilesCancelled: a cancelled context stops the runs on a
// serial and a parallel engine.
func TestNativeProfilesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := testData(t, 48)
	w := allWorkloads()[0]
	for _, eng := range []*engine.Engine{serialEngine(), engine.New(engine.Config{Workers: 2})} {
		if _, err := workload.NativeProfiles(ctx, eng, w, ds, []int{1, 2}, false); err == nil {
			t.Errorf("workers=%d: cancelled call returned no error", eng.Workers())
		}
	}
}
