package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/report"
)

// renderAll renders outcomes in order, failing on any experiment error.
func renderAll(t *testing.T, outcomes []Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if err := o.Doc.Render(&buf); err != nil {
			t.Fatalf("%s: render: %v", o.ID, err)
		}
	}
	return buf.Bytes()
}

// TestRunAllMatchesSerial is the headline determinism guarantee: the
// rendered output of a concurrent, cached engine run over the full
// registry is byte-identical to a serial, uncached run, for several worker
// counts.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	reg := Registry()
	want := renderAll(t, RunAll(ctx, serialEngine(), reg, quick))
	if len(want) == 0 {
		t.Fatal("serial run rendered nothing")
	}
	for _, workers := range []int{1, 2, 8} {
		eng := engine.New(engine.Config{Workers: workers})
		got := renderAll(t, RunAll(ctx, eng, reg, quick))
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: parallel rendering differs from serial (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

// TestRunAllCacheReplay runs the registry twice on one engine: the second
// pass must be served entirely from the cache.
func TestRunAllCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	reg := Registry()
	eng := engine.New(engine.Config{Workers: 4})

	first := renderAll(t, RunAll(ctx, eng, reg, quick))
	executed := eng.Stats().Executed

	outcomes := RunAll(ctx, eng, reg, quick)
	for _, o := range outcomes {
		if !o.Cached {
			t.Errorf("%s: second run not served from cache", o.ID)
		}
	}
	if again := eng.Stats().Executed; again != executed {
		t.Errorf("second run executed %d new jobs, want 0", again-executed)
	}
	second := renderAll(t, outcomes)
	if !bytes.Equal(first, second) {
		t.Error("cached replay rendered differently")
	}

	// Different options must NOT hit the quick-mode cache entries.
	fig4, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := cacheKey(fig4, quick), cacheKey(fig4, Options{}); k1 == k2 {
		t.Error("cache key ignores Options differences")
	}
	// The engine pointer must not influence the key (it is scheduling
	// state, not configuration).
	withEng := quick
	withEng.Engine = eng
	if cacheKey(fig4, quick) != cacheKey(fig4, withEng) {
		t.Error("cache key depends on the engine pointer")
	}
	// Timing-sensitive experiments on wall clock are uncacheable.
	fig2c, err := ByID("fig2c")
	if err != nil {
		t.Fatal(err)
	}
	if k := cacheKey(fig2c, Options{UseDuration: true}); k != "" {
		t.Errorf("fig2c with -duration got cache key %q, want uncacheable", k)
	}
	if k := cacheKey(fig2c, Options{}); k == "" {
		t.Error("fig2c without -duration should be cacheable")
	}
}

// TestRunAllCancellation cancels a registry run up front: every outcome
// must carry the context error and none may hold a document.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.Config{Workers: 4})
	for _, o := range RunAll(ctx, eng, Registry(), quick) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", o.ID, o.Err)
		}
		if o.Doc != nil {
			t.Errorf("%s: cancelled run produced a document", o.ID)
		}
	}
	// The cancelled results must not have poisoned the cache.
	outcomes := RunAll(context.Background(), eng, Registry()[:1], quick)
	if outcomes[0].Err != nil || outcomes[0].Doc == nil {
		t.Fatalf("run after cancellation: %+v", outcomes[0])
	}
}

// TestRunAllSubset checks single-target submission (the cmd path for
// `run <id>`): fig4 is closed-form arithmetic, so the experiment job is
// the only job on the engine.
func TestRunAllSubset(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4})
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	outcomes := RunAll(context.Background(), eng, []Experiment{e}, quick)
	if outcomes[0].Err != nil {
		t.Fatal(outcomes[0].Err)
	}
	if st := eng.Stats(); st.Executed != 1 {
		t.Errorf("fig4 executed %d engine jobs, want 1", st.Executed)
	}
}

// TestModelFiguresRunOneEngineJob pins that the model sweep figures
// (Figs. 4, 5 and 7) call the closed-form sweeps directly: on a fresh
// engine each executes exactly one job, its own, and shards nothing.
func TestModelFiguresRunOneEngineJob(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig7"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Config{Workers: 2})
		if o := RunAll(context.Background(), eng, []Experiment{e}, quick)[0]; o.Err != nil {
			t.Fatalf("%s: %v", id, o.Err)
		}
		if st := eng.Stats(); st.Executed != 1 {
			t.Errorf("%s executed %d engine jobs, want 1", id, st.Executed)
		}
	}
}

// TestStreamSinkError: an emit error on the cached-replay path (every
// target served from a warm engine, so no experiment runs and each
// document replays from the cache) stops delivery: StreamElements returns
// the error and emit is never called again.
func TestStreamSinkError(t *testing.T) {
	boom := errors.New("sink exploded")
	targets := Registry()[:3]
	eng := engine.New(engine.Config{Workers: 4})
	renderStreamElements(t, eng, targets, "text")
	executed := eng.Stats().Executed
	calls := 0
	err := StreamElements(context.Background(), eng, targets, quick, func(report.Element) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("StreamElements returned %v, want emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after erroring, want 1", calls)
	}
	if again := eng.Stats().Executed; again != executed {
		t.Fatalf("warm replay executed %d jobs, want 0", again-executed)
	}
}

// TestStreamSinkErrorCancelsOutstandingJobs: once emit errors, jobs that
// were already submitted must observe cancellation instead of running to
// completion for a result nobody will read (the disconnected-HTTP-client
// case). The slow target blocks until its context is cancelled; if the
// emit error did not propagate, it would sit in its 10s fallback and the
// test would time out.
func TestStreamSinkErrorCancelsOutstandingJobs(t *testing.T) {
	boom := errors.New("client gone")
	slowStarted := make(chan struct{})
	// fast completes only once slow is running, so the emit error (and the
	// cancellation it triggers) always races against a job that is already
	// in flight — the scenario under test — never one the engine can skip
	// with its pre-execution ctx check. fast's document is released (and
	// its first element fails) when its job resolves.
	fast := Experiment{ID: "fake-fast", Title: "fast", Run: func(ctx context.Context, opt Options) (*report.Document, error) {
		<-slowStarted
		return &report.Document{ID: "fake-fast", Title: "fast"}, nil
	}}
	slowObserved := make(chan error, 1)
	slow := Experiment{ID: "fake-slow", Title: "slow", Run: func(ctx context.Context, opt Options) (*report.Document, error) {
		close(slowStarted)
		select {
		case <-ctx.Done():
			slowObserved <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			err := errors.New("job outlived the emit error")
			slowObserved <- err
			return nil, err
		}
	}}

	eng := engine.New(engine.Config{Workers: 2})
	calls := 0
	err := StreamElements(context.Background(), eng, []Experiment{fast, slow}, quick, func(report.Element) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("StreamElements returned %v, want emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times, want 1", calls)
	}
	select {
	case observed := <-slowObserved:
		if !errors.Is(observed, context.Canceled) {
			t.Fatalf("outstanding job observed %v, want context.Canceled", observed)
		}
	default:
		t.Fatal("outstanding job never ran (test setup assumed it was submitted)")
	}
}

// TestStreamCancellation: a stream started on a cancelled context emits
// nothing and returns an error wrapping context.Canceled, on a serial and
// a parallel engine.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []*engine.Engine{serialEngine(), engine.New(engine.Config{Workers: 4})} {
		calls := 0
		err := StreamElements(ctx, eng, Registry(), quick, func(report.Element) error {
			calls++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", eng.Workers(), err)
		}
		if calls != 0 {
			t.Errorf("workers=%d: cancelled stream emitted %d elements, want 0", eng.Workers(), calls)
		}
	}
}

// TestStreamWarmDiskCacheRoundTrip round-trips streamed documents through
// a warm persistent cache: a second stream from a fresh engine and store
// over the same directory must execute nothing, read every target from
// the store, and render byte-identical markdown — proving the gob
// envelope path and the streaming pipeline compose.
func TestStreamWarmDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	target := []Experiment{Registry()[9]} // fig4: cheap, analytical
	if target[0].ID != "fig4" {
		t.Fatalf("registry order changed: got %s, want fig4", target[0].ID)
	}

	cold, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldMD := renderStreamElements(t, engine.New(engine.Config{Workers: 2, Store: cold}), target, "markdown")

	warm, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Store: warm})
	warmMD := renderStreamElements(t, eng, target, "markdown")
	st := eng.Stats()
	if st.Executed != 0 {
		t.Errorf("warm streamed run executed %d jobs, want 0", st.Executed)
	}
	if st.StoreHits != uint64(len(target)) {
		t.Errorf("warm streamed run had %d store hits, want %d", st.StoreHits, len(target))
	}
	if !bytes.Equal(coldMD, warmMD) {
		t.Error("warm streamed markdown differs from cold")
	}
}
