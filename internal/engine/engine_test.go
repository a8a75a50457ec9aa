package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildJobs makes n deterministic jobs seeded by seed; each returns a
// string derived from its index so result ordering is observable.
func buildJobs(seed, n int, key bool) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		k := ""
		if key {
			k = Key("job", seed, i)
		}
		jobs[i] = Job{
			ID:  fmt.Sprintf("s%d-j%d", seed, i),
			Key: k,
			Fn: func(context.Context) (any, error) {
				return fmt.Sprintf("seed=%d idx=%d val=%d", seed, i, seed*1000+i*7), nil
			},
		}
	}
	return jobs
}

// TestDeterministicOrdering asserts that a parallel run returns the exact
// result sequence of a serial run, across 20 seeds.
func TestDeterministicOrdering(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		serial := New(Config{Workers: 1})
		parallel := New(Config{Workers: 8})
		jobs := buildJobs(seed, 64, false)
		want := serial.Run(context.Background(), jobs)
		got := parallel.Run(context.Background(), jobs)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: parallel results differ from serial\nserial:   %v\nparallel: %v", seed, want, got)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	e := New(Config{})
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d, want >= 1", e.Workers())
	}
	if got := New(Config{Workers: 3}).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
}

// TestCacheAccounting checks hit/miss counters and that cached jobs reuse
// the first computation.
func TestCacheAccounting(t *testing.T) {
	e := New(Config{Workers: 4})
	var calls atomic.Int64
	job := Job{
		ID:  "cached",
		Key: Key("fixed"),
		Fn: func(context.Context) (any, error) {
			calls.Add(1)
			return "value", nil
		},
	}
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = job
	}
	res := e.Run(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil || r.Value != "value" {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("job computed %d times, want 1", got)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("stats = %+v, want 1 miss / 9 hits", st)
	}
	cached := 0
	for _, r := range res {
		if r.Cached {
			cached++
		}
	}
	if cached != 9 {
		t.Fatalf("%d results marked Cached, want 9", cached)
	}

	// A second run is all hits.
	e.Run(context.Background(), jobs[:4])
	if st := e.Stats(); st.Misses != 1 || st.Hits != 13 {
		t.Fatalf("after second run stats = %+v, want 1 miss / 13 hits", st)
	}

	e.InvalidateCache()
	if e.CacheLen() != 0 {
		t.Fatalf("cache not empty after invalidate")
	}
	e.Run(context.Background(), jobs[:1])
	if got := calls.Load(); got != 2 {
		t.Fatalf("after invalidate job computed %d times, want 2", got)
	}
}

// TestCacheDisabled verifies DisableCache computes every submission.
func TestCacheDisabled(t *testing.T) {
	e := New(Config{Workers: 2, DisableCache: true})
	var calls atomic.Int64
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{ID: "j", Key: Key("same"), Fn: func(context.Context) (any, error) {
			calls.Add(1)
			return nil, nil
		}}
	}
	e.Run(context.Background(), jobs)
	if calls.Load() != 5 {
		t.Fatalf("computed %d times, want 5", calls.Load())
	}
	if st := e.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cache counters moved with cache disabled: %+v", st)
	}
}

// TestCancellationMidSweep cancels while a batch is in flight and checks
// that unstarted jobs report ctx.Err() without executing.
func TestCancellationMidSweep(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	block := make(chan struct{})

	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{
			ID: fmt.Sprintf("j%d", i),
			Fn: func(ctx context.Context) (any, error) {
				once.Do(func() { close(started) })
				executed.Add(1)
				select {
				case <-block:
					return "done", nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		}
	}
	go func() {
		<-started
		cancel()
		close(block)
	}()
	res := e.Run(ctx, jobs)
	var cancelled int
	for _, r := range res {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatalf("no job observed cancellation; executed=%d", executed.Load())
	}
	if executed.Load() == int64(len(jobs)) {
		t.Log("all jobs started before cancel (slow machine); cancellation still observed")
	}
}

// TestCancellationNotCached ensures a cancelled computation does not poison
// the cache: a later run with a live context recomputes the key.
func TestCancellationNotCached(t *testing.T) {
	e := New(Config{Workers: 1})
	key := Key("retry")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.RunOne(ctx, Job{ID: "first", Key: key, Fn: func(ctx context.Context) (any, error) {
		return nil, ctx.Err()
	}})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("first run err = %v, want context.Canceled", res.Err)
	}
	res = e.RunOne(context.Background(), Job{ID: "second", Key: key, Fn: func(context.Context) (any, error) {
		return "fresh", nil
	}})
	if res.Err != nil || res.Value != "fresh" {
		t.Fatalf("second run = %+v, want fresh value", res)
	}
}

// TestErrorsAreCached verifies deterministic (non-cancellation) errors are
// shared like values.
func TestErrorsAreCached(t *testing.T) {
	e := New(Config{Workers: 2})
	boom := errors.New("boom")
	var calls atomic.Int64
	job := Job{ID: "e", Key: Key("err"), Fn: func(context.Context) (any, error) {
		calls.Add(1)
		return nil, boom
	}}
	res := e.Run(context.Background(), []Job{job, job, job})
	for i, r := range res {
		if !errors.Is(r.Err, boom) {
			t.Fatalf("result %d err = %v, want boom", i, r.Err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("error computed %d times, want 1", calls.Load())
	}
}

// TestNestedSubmission runs jobs that themselves submit sub-jobs through
// the same saturated engine; inline execution must prevent deadlock.
func TestNestedSubmission(t *testing.T) {
	e := New(Config{Workers: 2})
	outer := make([]Job, 8)
	for i := range outer {
		i := i
		outer[i] = Job{
			ID: fmt.Sprintf("outer%d", i),
			Fn: func(ctx context.Context) (any, error) {
				sub := make([]Job, 4)
				for j := range sub {
					j := j
					sub[j] = Job{ID: fmt.Sprintf("inner%d-%d", i, j), Fn: func(context.Context) (any, error) {
						return i*10 + j, nil
					}}
				}
				total := 0
				for _, r := range e.Run(ctx, sub) {
					if r.Err != nil {
						return nil, r.Err
					}
					total += r.Value.(int)
				}
				return total, nil
			},
		}
	}
	done := make(chan []Result, 1)
	go func() { done <- e.Run(context.Background(), outer) }()
	select {
	case res := <-done:
		for i, r := range res {
			want := i*40 + 6 // sum of i*10+j for j in 0..3
			if r.Err != nil || r.Value.(int) != want {
				t.Fatalf("outer %d = %+v, want %d", i, r, want)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested submission deadlocked")
	}
}

// TestRunInlineJobDoesNotStallLaterJobs: a job the caller runs must not
// hold back the jobs submitted after it. Job a finishes only once b has
// started, and b only once c has finished, so the batch completes only if
// whichever goroutine frees up first goes on to claim the next job. A
// dispatcher that runs one job on the caller and hands the rest to slots
// only between the caller's own jobs never reaches c while it runs b.
func TestRunInlineJobDoesNotStallLaterJobs(t *testing.T) {
	e := New(Config{Workers: 2})
	bStarted := make(chan struct{})
	cDone := make(chan struct{})
	wait := func(ch chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("timed out waiting for %s", what)
		}
	}
	jobs := []Job{
		{ID: "a", Fn: func(context.Context) (any, error) {
			return "a", wait(bStarted, "b to start")
		}},
		{ID: "b", Fn: func(context.Context) (any, error) {
			close(bStarted)
			return "b", wait(cDone, "c to finish")
		}},
		{ID: "c", Fn: func(context.Context) (any, error) {
			close(cDone)
			return "c", nil
		}},
	}
	for i, r := range e.Run(context.Background(), jobs) {
		if r.Err != nil || r.Value != jobs[i].ID {
			t.Fatalf("job %s = %+v", jobs[i].ID, r)
		}
	}
}

// TestRunNeverExceedsWorkers: nested Runs submitted from one external
// caller never execute more than Workers leaf jobs at once — the caller
// plus at most Workers-1 helpers, engine-wide.
func TestRunNeverExceedsWorkers(t *testing.T) {
	for _, workers := range []int{2, 3} {
		e := New(Config{Workers: workers})
		var running, peak atomic.Int64
		leaf := func(context.Context) (any, error) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			running.Add(-1)
			return nil, nil
		}
		outer := make([]Job, 6)
		for i := range outer {
			outer[i] = Job{ID: fmt.Sprintf("outer%d", i), Fn: func(ctx context.Context) (any, error) {
				mid := make([]Job, 3)
				for j := range mid {
					mid[j] = Job{ID: "mid", Fn: func(ctx context.Context) (any, error) {
						leaves := make([]Job, 4)
						for k := range leaves {
							leaves[k] = Job{ID: "leaf", Fn: leaf}
						}
						e.Run(ctx, leaves)
						return nil, nil
					}}
				}
				e.Run(ctx, mid)
				return nil, nil
			}}
		}
		e.Run(context.Background(), outer)
		if p := peak.Load(); p > int64(workers) {
			t.Fatalf("workers=%d: %d leaf jobs ran at once", workers, p)
		}
		if p := peak.Load(); p < 1 {
			t.Fatalf("workers=%d: no leaf job ran", workers)
		}
	}
}

// TestPanicIsolated converts a panicking job into an error without
// crashing the pool.
func TestPanicIsolated(t *testing.T) {
	e := New(Config{Workers: 2})
	res := e.Run(context.Background(), []Job{
		{ID: "ok", Fn: func(context.Context) (any, error) { return 1, nil }},
		{ID: "bad", Fn: func(context.Context) (any, error) { panic("kaboom") }},
		{ID: "ok2", Fn: func(context.Context) (any, error) { return 2, nil }},
	})
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy jobs errored: %+v", res)
	}
	if res[1].Err == nil || res[1].Value != nil {
		t.Fatalf("panicking job result = %+v, want error", res[1])
	}
}

// TestKeyDeterminism checks Key is stable and collision-free across
// distinct part tuples.
func TestKeyDeterminism(t *testing.T) {
	type opts struct {
		Quick bool
		Scale int
	}
	a := Key("fig4", opts{Quick: true, Scale: 2})
	b := Key("fig4", opts{Quick: true, Scale: 2})
	if a != b {
		t.Fatalf("identical parts hashed differently: %s vs %s", a, b)
	}
	seen := map[string]string{}
	for _, parts := range [][]any{
		{"fig4", opts{}},
		{"fig4", opts{Quick: true}},
		{"fig5", opts{}},
		{"fig4", opts{Scale: 1}},
		{"fig4", "extra"},
	} {
		k := Key(parts...)
		label := fmt.Sprintf("%v", parts)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %s and %s", prev, label)
		}
		seen[k] = label
	}
}

// TestConcurrentRunCallers hammers one engine from many goroutines to give
// the race detector surface area.
func TestConcurrentRunCallers(t *testing.T) {
	e := New(Config{Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := buildJobs(g, 32, true)
			for rep := 0; rep < 3; rep++ {
				for _, r := range e.Run(context.Background(), jobs) {
					if r.Err != nil {
						t.Errorf("goroutine %d: %v", g, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Misses != 8*32 {
		t.Fatalf("misses = %d, want %d (one per distinct key)", st.Misses, 8*32)
	}
}

// TestWaiterSurvivesComputerCancellation covers the singleflight edge
// where the goroutine computing a key is cancelled while another submitter
// with a live context waits on it: the waiter must recompute, not inherit
// the foreign cancellation.
func TestWaiterSurvivesComputerCancellation(t *testing.T) {
	e := New(Config{Workers: 4})
	key := Key("shared-flight")
	ctxA, cancelA := context.WithCancel(context.Background())
	started := make(chan struct{})

	var wg sync.WaitGroup
	var resA, resB Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		resA = e.RunOne(ctxA, Job{ID: "computer", Key: key, Fn: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		resB = e.RunOne(context.Background(), Job{ID: "waiter", Key: key, Fn: func(context.Context) (any, error) {
			return "recomputed", nil
		}})
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the in-flight entry
	cancelA()
	wg.Wait()

	if !errors.Is(resA.Err, context.Canceled) {
		t.Fatalf("computer result = %+v, want context.Canceled", resA)
	}
	if resB.Err != nil || resB.Value != "recomputed" {
		t.Fatalf("waiter result = %+v, want recomputed value", resB)
	}
}

// TestOnDoneFiresOncePerJob: every job's OnDone hook must fire exactly
// once with the job's own result, before Run returns, across worker
// counts (exercising both the pool and the inline path).
func TestOnDoneFiresOncePerJob(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		eng := New(Config{Workers: workers})
		const n = 24
		jobs := buildJobs(workers, n, true)
		var mu sync.Mutex
		calls := make(map[string]int)
		notified := make(map[string]Result)
		for i := range jobs {
			id := jobs[i].ID
			jobs[i].OnDone = func(r Result) {
				mu.Lock()
				calls[id]++
				notified[id] = r
				mu.Unlock()
			}
		}
		results := eng.Run(context.Background(), jobs)
		// Run has returned: every hook must already have fired, no lock
		// needed beyond the race detector's satisfaction.
		mu.Lock()
		defer mu.Unlock()
		if len(calls) != n {
			t.Fatalf("workers=%d: %d jobs notified, want %d", workers, len(calls), n)
		}
		for i, r := range results {
			id := jobs[i].ID
			if calls[id] != 1 {
				t.Errorf("workers=%d: %s notified %d times, want 1", workers, id, calls[id])
			}
			if got := notified[id]; got.Value != r.Value || got.Err != r.Err {
				t.Errorf("workers=%d: %s notified %+v, Run returned %+v", workers, id, got, r)
			}
		}
	}
}

// TestOnDoneInline: with Workers=1 every job runs inline on the calling
// goroutine, and the hook must still fire for each (synchronously, so no
// locking is even necessary).
func TestOnDoneInline(t *testing.T) {
	eng := New(Config{Workers: 1})
	var order []string
	jobs := buildJobs(7, 6, false)
	for i := range jobs {
		id := jobs[i].ID
		jobs[i].OnDone = func(Result) { order = append(order, id) }
	}
	eng.Run(context.Background(), jobs)
	if st := eng.Stats(); st.Inline != 6 {
		t.Fatalf("inline executions = %d, want 6", st.Inline)
	}
	for i, id := range order {
		if id != jobs[i].ID {
			t.Fatalf("inline notification order %v, want submission order", order)
		}
	}
	if len(order) != 6 {
		t.Fatalf("%d notifications, want 6", len(order))
	}
}

// TestOnDoneCancellationAndCache: hooks fire for cancelled results (with
// the context error) and for cache-satisfied duplicates.
func TestOnDoneCancellationAndCache(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Config{Workers: 4})
	var notified atomic.Uint64
	jobs := buildJobs(1, 4, true)
	for i := range jobs {
		jobs[i].OnDone = func(r Result) {
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("cancelled job notified with err %v", r.Err)
			}
			notified.Add(1)
		}
	}
	eng.Run(ctx, jobs)
	if notified.Load() != 4 {
		t.Fatalf("%d cancelled notifications, want 4", notified.Load())
	}

	// Same key twice: the duplicate is served from cache, but both hooks
	// must fire and agree on the value.
	notified.Store(0)
	dup := make([]Job, 2)
	for i := range dup {
		dup[i] = Job{
			ID:  fmt.Sprintf("dup%d", i),
			Key: Key("ondone-dup"),
			Fn:  func(context.Context) (any, error) { return "v", nil },
			OnDone: func(r Result) {
				if r.Value != "v" || r.Err != nil {
					t.Errorf("dup notified %+v", r)
				}
				notified.Add(1)
			},
		}
	}
	eng.Run(context.Background(), dup)
	if notified.Load() != 2 {
		t.Fatalf("%d duplicate notifications, want 2", notified.Load())
	}
}
