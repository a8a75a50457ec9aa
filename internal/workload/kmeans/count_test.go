package kmeans

import (
	"fmt"
	"math"
	"testing"

	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// quickSpec shrinks a spec the way the experiments' -quick mode does.
func quickSpec(s datagen.Spec) datagen.Spec {
	s.N /= 8
	if s.N < 1024 {
		s.N = 1024
	}
	return s
}

// countedProfile is the accounting Run did inline while it counted its own
// work: every term written out, and the merge term taken from the Cost that
// a real reduction.Reduce counts over the run's partial buffers.
func countedProfile(t *testing.T, ds *datagen.Dataset, cfg Config, threads int) *trace.Profile {
	t.Helper()
	n, d, k := ds.N(), ds.D(), cfg.K
	prof := trace.NewProfile("kmeans", threads)
	prof.AddWork(trace.SecInit, float64(k*d))
	pv := parallel.NewPrivatized(threads, k*(d+1))
	sums := make([]float64, k*(d+1))
	for iter := 0; iter < cfg.Iters; iter++ {
		prof.AddWork(trace.SecParallel, float64(n)*float64(3*k*d+k+d+1))
		cost, err := reduction.Reduce(cfg.Strategy, pv, sums, nil)
		if err != nil {
			t.Fatal(err)
		}
		prof.AddWork(trace.SecReduction, float64(cost.CriticalOps)+float64(2*k*d))
		prof.AddWork(trace.SecSerial, float64(3*k*d))
	}
	return prof
}

// TestCountMatchesCountedRun: the closed-form profile equals, bit for bit
// in every section, the profile a run counts, across thread counts,
// strategies, iteration counts, the quick base data set and the quick
// Table IV specs.
func TestCountMatchesCountedRun(t *testing.T) {
	specs := append([]datagen.Spec{quickSpec(New().DefaultSpec())}, datagen.TableIVKMeans()...)
	for i := 1; i < len(specs); i++ {
		specs[i] = quickSpec(specs[i])
	}
	for _, spec := range specs {
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
			for _, iters := range []int{1, 2, 10} {
				for _, threads := range []int{1, 2, 3, 4, 7, 8} {
					cfg := Config{K: 8, Iters: iters, Strategy: s}
					got, err := Count(ds, cfg, threads)
					if err != nil {
						t.Fatal(err)
					}
					want := countedProfile(t, ds, cfg, threads)
					if got.Name != want.Name || got.Threads != want.Threads {
						t.Fatalf("%s: profile %s/%d, want %s/%d", spec.Label, got.Name, got.Threads, want.Name, want.Threads)
					}
					for _, sec := range trace.Sections() {
						if g, w := got.Work[sec], want.Work[sec]; math.Float64bits(g) != math.Float64bits(w) {
							t.Errorf("%s %s iters=%d threads=%d: %s work %v, counted %v",
								spec.Label, s, iters, threads, sec, g, w)
						}
					}
				}
			}
		}
	}
}

// TestRunProfileIsCount: a real run, timed or not, records Count's work
// and nothing else, and the timed RunNative does the same.
func TestRunProfileIsCount(t *testing.T) {
	ds := smallData(t)
	for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
		cfg := Config{K: 4, Iters: 2, Strategy: s}
		for _, threads := range []int{1, 3} {
			want, err := Count(ds, cfg, threads)
			if err != nil {
				t.Fatal(err)
			}
			for _, timing := range []bool{false, true} {
				_, got, err := Run(ds, cfg, threads, timing)
				if err != nil {
					t.Fatal(err)
				}
				if got.Work != want.Work {
					t.Errorf("%s threads=%d timing=%v: run work %v, Count %v", s, threads, timing, got.Work, want.Work)
				}
			}
			got, err := (&KMeans{Cfg: cfg}).RunNative(ds, threads, true)
			if err != nil {
				t.Fatal(err)
			}
			if got.Work != want.Work || got.SectionDuration(trace.SecParallel) <= 0 {
				t.Errorf("%s threads=%d: timed RunNative work %v (parallel %v), Count %v",
					s, threads, got.Work, got.SectionDuration(trace.SecParallel), want.Work)
			}
		}
	}
}

// TestCountErrorParity: Count, Run and both RunNative modes reject the same
// inputs with the same error, and K == N is still accepted.
func TestCountErrorParity(t *testing.T) {
	ds := smallData(t)
	n := ds.N()
	cases := []struct {
		name    string
		cfg     Config
		threads int
	}{
		{"K>N", Config{K: n + 1, Iters: 1}, 1},
		{"threads=0", Config{K: 4, Iters: 1}, 0},
		{"threads<0", Config{K: 4, Iters: 1}, -2},
		{"K=0", Config{K: 0, Iters: 1}, 1},
		{"Iters=0", Config{K: 4, Iters: 0}, 1},
		{"strategy", Config{K: 4, Iters: 1, Strategy: reduction.Strategy(9)}, 2},
	}
	for _, c := range cases {
		_, _, runErr := Run(ds, c.cfg, c.threads, false)
		if runErr == nil {
			t.Errorf("%s: Run accepted it", c.name)
			continue
		}
		w := &KMeans{Cfg: c.cfg}
		_, countErr := Count(ds, c.cfg, c.threads)
		_, nativeErr := w.RunNative(ds, c.threads, false)
		_, timedErr := w.RunNative(ds, c.threads, true)
		for _, err := range []error{countErr, nativeErr, timedErr} {
			if fmt.Sprint(err) != runErr.Error() {
				t.Errorf("%s: error %v, Run's %v", c.name, err, runErr)
			}
		}
	}
	if _, err := Count(ds, Config{K: n, Iters: 1}, 1); err != nil {
		t.Errorf("K=N: %v", err)
	}
}

// TestCountModeAllocs: a count-mode native run allocates only its profile.
// Starting the kernel would allocate the worker team, the N-entry assign
// slice and every partial buffer, far past this bound.
func TestCountModeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	ds := smallData(t)
	w := New()
	for _, threads := range []int{1, 8} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := w.RunNative(ds, threads, false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("threads=%d: count-mode RunNative made %v allocations, want <= 1", threads, allocs)
		}
	}
}
