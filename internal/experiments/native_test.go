package experiments

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/workload"
	"mergescale/internal/workload/hop"
)

// putCounter is an engine.Store that never hits and counts Puts per key.
// The engine Puts every successful cacheable execution, so a key's count
// is the number of times its job function ran.
type putCounter struct {
	mu   sync.Mutex
	puts map[string]int
}

func (p *putCounter) Get(string) (any, bool) { return nil, false }

func (p *putCounter) Put(key string, _ any) {
	p.mu.Lock()
	p.puts[key]++
	p.mu.Unlock()
}

// runCounted runs targets on a fresh engine and returns its store's Put
// counts and the engine stats.
func runCounted(t *testing.T, targets []Experiment) (map[string]int, engine.Stats) {
	t.Helper()
	st := &putCounter{puts: map[string]int{}}
	eng := engine.New(engine.Config{Workers: 4, Store: st})
	for _, o := range RunAll(context.Background(), eng, targets, quick) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
	}
	return st.puts, eng.Stats()
}

// TestRunAllDedupesNativeRuns: Table IV and Fig. 2(c) both need the
// hop-default quick runs at every native thread count; one RunAll executes
// each of those native-run keys exactly once, and no job runs twice. The
// three count-mode runs read one memoized hop kernel pass: an earlier test
// may already have built it, so the first runs here build at most one,
// and no later run, not even on an engine with no memory cache, builds
// another.
func TestRunAllDedupesNativeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	w := hop.New()
	ds, err := datasetFor(w, quick)
	if err != nil {
		t.Fatal(err)
	}
	var hopKeys []string
	for _, th := range nativeThreadCounts(quick) {
		hopKeys = append(hopKeys, workload.NativeRunKey(w, ds.Spec, th))
	}

	passes := hop.PassesBuilt()
	// Both experiments submit the hop runs on their own.
	for _, id := range []string{"table4", "fig2c"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		puts, _ := runCounted(t, []Experiment{e})
		for _, k := range hopKeys {
			if puts[k] != 1 {
				t.Errorf("%s alone: hop native-run key %s executed %d times, want 1", id, k, puts[k])
			}
		}
	}
	if got := hop.PassesBuilt() - passes; got > 1 {
		t.Errorf("table4 and fig2c alone built %d hop kernel passes, want at most 1", got)
	}
	passes = hop.PassesBuilt()

	puts, stats := runCounted(t, Registry())
	for _, k := range hopKeys {
		if puts[k] != 1 {
			t.Errorf("run all: hop native-run key %s executed %d times, want 1", k, puts[k])
		}
	}
	for k, n := range puts {
		if n != 1 {
			t.Errorf("run all: key %s executed %d times, want 1", k, n)
		}
	}
	if stats.Executed != uint64(len(puts)) {
		t.Errorf("run all executed %d jobs for %d distinct keys", stats.Executed, len(puts))
	}

	// -nocache: every experiment runs hop's thread counts itself.
	nocache := engine.New(engine.Config{Workers: 4, DisableCache: true})
	for _, o := range RunAll(context.Background(), nocache, Registry(), quick) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
	}
	if got := hop.PassesBuilt() - passes; got != 0 {
		t.Errorf("run all, cached and not, built %d more hop kernel passes, want 0", got)
	}
}

// TestFig2cDurationRunsKernels: with UseDuration, Fig. 2(c) times the real
// kmeans, fuzzy and hop kernels at every thread count (count mode runs
// none of the first two and one memoized pass of hop's, which a timed run
// never builds), and every normalized serial time it renders is positive
// and finite.
func TestFig2cDurationRunsKernels(t *testing.T) {
	opt := Options{Quick: true, UseDuration: true, Engine: serialEngine()}
	passes := hop.PassesBuilt()
	doc, err := Fig2c(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := hop.PassesBuilt() - passes; got != 0 {
		t.Errorf("timed fig2c built %d hop kernel passes, want 0", got)
	}
	if len(doc.Tables) != 1 || len(doc.Tables[0].Rows) != 3 {
		t.Fatalf("fig2c: want one table of 3 rows, got %+v", doc.Tables)
	}
	grid := nativeThreadCounts(opt)
	for _, row := range doc.Tables[0].Rows {
		if len(row) != len(grid)+1 {
			t.Fatalf("row %q: %d cells, want %d", row, len(row), len(grid)+1)
		}
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: cell %q is not a positive finite value", row[0], cell)
			}
		}
	}
	if len(doc.Charts) != 1 || len(doc.Charts[0].Series) != 3 {
		t.Fatalf("fig2c: want one chart of 3 series, got %+v", doc.Charts)
	}
	for _, s := range doc.Charts[0].Series {
		for i, y := range s.Y {
			if !(y > 0) || math.IsInf(y, 0) {
				t.Errorf("%s p=%v: normalized serial time %v", s.Name, s.X[i], y)
			}
		}
	}
}
