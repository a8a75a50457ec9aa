package hop

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// TestCountMatchesCountedRun: the closed-form profile equals, bit for bit
// in every section, the profile a kernel run counts, across the digest
// specs, window sizes and thread counts. At 64 threads a 3,000-point
// set's chunks (about 47 points) are narrower than the widest window, so
// one parent edge can span several chunks.
func TestCountMatchesCountedRun(t *testing.T) {
	for _, spec := range digestSpecs() {
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, nbr := range []int{1, 64, 129} {
			cfg := Config{MaxNeighbors: nbr}
			for _, threads := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
				got, err := Count(ds, cfg, threads)
				if err != nil {
					t.Fatal(err)
				}
				_, want, err := Run(ds, cfg, threads, false)
				if err != nil {
					t.Fatal(err)
				}
				if got.Name != want.Name || got.Threads != want.Threads {
					t.Fatalf("%s: profile %s/%d, want %s/%d", spec.Label, got.Name, got.Threads, want.Name, want.Threads)
				}
				for _, sec := range trace.Sections() {
					if g, w := got.Work[sec], want.Work[sec]; math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("%s nbr=%d threads=%d: %s work %v, counted %v", spec.Label, nbr, threads, sec, g, w)
					}
				}
			}
		}
	}
}

// TestWindowPairs: the closed form equals a direct count of every
// position's window, including windows wider than the data set.
func TestWindowPairs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 130} {
		for _, w := range []int{1, 2, 32, 64, 200} {
			direct := 0
			for s := 0; s <= n; s++ {
				if got := windowPairs(s, n, w); got != direct {
					t.Fatalf("n=%d w=%d s=%d: windowPairs %d, direct %d", n, w, s, got, direct)
				}
				if s < n {
					direct += min(s+w+1, n) - max(s-w, 0) - 1
				}
			}
		}
	}
}

// TestRunValidation: Run, Count and both RunNative modes reject the same
// inputs with the same error, and a set CellsPerDim is accepted.
func TestRunValidation(t *testing.T) {
	ds := smallData(t)
	hiD, err := datagen.Generate(datagen.Spec{Label: "hi-d", N: 64, D: 5, C: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		ds      *datagen.Dataset
		cfg     Config
		threads int
	}{
		{"threads=0", ds, DefaultConfig(), 0},
		{"threads<0", ds, DefaultConfig(), -3},
		{"d>4", hiD, DefaultConfig(), 1},
		{"CellsPerDim<0", ds, Config{CellsPerDim: -1, MaxNeighbors: 64}, 2},
		{"CellsPerDim<0 and threads=0", ds, Config{CellsPerDim: -5}, 0},
		{"cells over the cap", ds, Config{CellsPerDim: 200}, 1},
		{"cell count overflows int", ds, Config{CellsPerDim: 1 << 22}, 1},
	}
	for _, c := range cases {
		_, _, runErr := Run(c.ds, c.cfg, c.threads, false)
		if runErr == nil {
			t.Errorf("%s: Run accepted it", c.name)
			continue
		}
		w := &Hop{Cfg: c.cfg}
		_, countErr := Count(c.ds, c.cfg, c.threads)
		_, nativeErr := w.RunNative(c.ds, c.threads, false)
		_, timedErr := w.RunNative(c.ds, c.threads, true)
		for _, err := range []error{countErr, nativeErr, timedErr} {
			if fmt.Sprint(err) != runErr.Error() {
				t.Errorf("%s: error %v, Run's %v", c.name, err, runErr)
			}
		}
	}
	cfg := Config{CellsPerDim: 5, MaxNeighbors: 16}
	_, want, err := Run(ds, cfg, 3, false)
	if err != nil {
		t.Fatalf("CellsPerDim=5: %v", err)
	}
	if got, err := Count(ds, cfg, 3); err != nil || got.Work != want.Work {
		t.Errorf("CellsPerDim=5: Count work %v (err %v), Run's %v", got.Work, err, want.Work)
	}
}

// TestPassMemo: concurrent count-mode runs of one data set at several
// thread counts share one kernel pass, a different window builds its own,
// and timed runs build none.
func TestPassMemo(t *testing.T) {
	ds := smallData(t)
	cfg := Config{MaxNeighbors: 48} // a key no other test builds
	other := Config{MaxNeighbors: 50}
	for _, c := range []Config{cfg, other} { // fresh under -count
		passes.Delete(passKey{spec: ds.Spec, cfg: c})
	}
	before := PassesBuilt()

	w := &Hop{Cfg: cfg}
	var wg sync.WaitGroup
	for _, threads := range []int{1, 2, 4, 8, 1, 2, 4, 8} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.RunNative(ds, threads, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if built := PassesBuilt() - before; built != 1 {
		t.Fatalf("8 concurrent count-mode runs of one data set built %d passes, want 1", built)
	}
	if _, err := w.RunNative(ds, 3, true); err != nil {
		t.Fatal(err)
	}
	if built := PassesBuilt() - before; built != 1 {
		t.Errorf("a timed run built a pass (%d built)", built)
	}
	if _, err := Count(ds, other, 2); err != nil {
		t.Fatal(err)
	}
	if built := PassesBuilt() - before; built != 2 {
		t.Errorf("a different window must build its own pass (%d built)", built)
	}
}

// TestCountModeAllocs: on a warm memo a count-mode native run allocates
// only its profile and the Split ranges. Running the kernel would allocate
// the worker team and every per-point array, far past this bound.
func TestCountModeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	ds := smallData(t)
	w := New()
	if _, err := w.RunNative(ds, 1, false); err != nil { // warm the memo
		t.Fatal(err)
	}
	for _, threads := range []int{1, 8} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := w.RunNative(ds, threads, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("threads=%d: count-mode RunNative made %v allocations, want <= 2", threads, allocs)
		}
	}
}
