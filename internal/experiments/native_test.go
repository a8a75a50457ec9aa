package experiments

import (
	"context"
	"math"
	"strconv"
	"sync"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
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

// TestRunAllStoresDocumentsAndSimRuns: native profiles are plain calls,
// so a cold RunAll stores one entry per experiment plus one per simulated
// run and nothing else, and no key executes twice. Table IV and Fig. 2(c)
// each store only their document. Both profile hop-default at every
// native thread count, and those count-mode runs read one memoized hop
// kernel pass: an earlier test may already have built it, so the first
// runs here build at most one, and no later run, not even on an engine
// with no memory cache, builds another.
func TestRunAllStoresDocumentsAndSimRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	passes := hop.PassesBuilt()
	for _, id := range []string{"table4", "fig2c"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if puts, _ := runCounted(t, []Experiment{e}); len(puts) != 1 {
			t.Errorf("%s alone stored %d keys, want 1 (its document)", id, len(puts))
		}
	}
	if got := hop.PassesBuilt() - passes; got > 1 {
		t.Errorf("table4 and fig2c alone built %d hop kernel passes, want at most 1", got)
	}
	passes = hop.PassesBuilt()

	runs := sim.Runs()
	puts, stats := runCounted(t, Registry())
	simRuns := sim.Runs() - runs
	for k, n := range puts {
		if n != 1 {
			t.Errorf("run all: key %s executed %d times, want 1", k, n)
		}
	}
	if want := len(Registry()) + int(simRuns); len(puts) != want {
		t.Errorf("run all stored %d keys, want %d (%d documents + %d simulated runs)",
			len(puts), want, len(Registry()), simRuns)
	}
	if stats.Executed != uint64(len(puts)) {
		t.Errorf("run all executed %d jobs for %d distinct keys", stats.Executed, len(puts))
	}

	// -nocache: every experiment profiles hop-default itself.
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
