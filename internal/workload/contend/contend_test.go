package contend_test

import (
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
)

func testDataset(t *testing.T, n int) *datagen.Dataset {
	t.Helper()
	w := contend.New()
	spec := w.DefaultSpec()
	spec.N = n
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestJoinedInvalidationStorm pins the tentpole's physical effect: at high
// skew, joined-mode simulation suffers hot-line invalidations and loses
// speedup, while split mode keeps the parallel phase coherence-quiet.
func TestJoinedInvalidationStorm(t *testing.T) {
	ds := testDataset(t, 16384)
	mkRun := func(mode contend.Mode, cores int) workload.SimRun {
		w := contend.New()
		w.Cfg.Mode = mode
		w.Cfg.Alpha = 2
		w.Cfg.Keys = 128
		r, err := workload.RunSim(w, ds, sim.DefaultConfig(cores), 1)
		if err != nil {
			t.Fatalf("%v p=%d: %v", mode, cores, err)
		}
		return r
	}

	j1, j8 := mkRun(contend.Joined, 1), mkRun(contend.Joined, 8)
	s1, s8 := mkRun(contend.Split, 1), mkRun(contend.Split, 8)

	if j1.Counters.Invalidations != 0 {
		t.Errorf("1-core run cannot invalidate, got %d", j1.Counters.Invalidations)
	}
	if j8.Counters.Invalidations == 0 || j8.Counters.HotLineInvalidations == 0 {
		t.Errorf("joined 8-core run should storm: inv=%d hotline=%d",
			j8.Counters.Invalidations, j8.Counters.HotLineInvalidations)
	}
	// The storm concentrates: the hottest line absorbs a meaningful share.
	if 10*j8.Counters.HotLineInvalidations < j8.Counters.Invalidations {
		t.Errorf("hot line holds %d of %d invalidations — expected concentration",
			j8.Counters.HotLineInvalidations, j8.Counters.Invalidations)
	}
	// Split keeps parallel-phase writes private; its invalidations come
	// only from the master's merge reads and must be far fewer per store.
	if s8.Counters.Invalidations >= j8.Counters.Invalidations {
		t.Errorf("split (%d) should invalidate less than joined (%d)",
			s8.Counters.Invalidations, j8.Counters.Invalidations)
	}

	spJoined := float64(j1.Cycles) / float64(j8.Cycles)
	spSplit := float64(s1.Cycles) / float64(s8.Cycles)
	if spJoined >= spSplit {
		t.Errorf("joined speedup %.2f should trail split speedup %.2f at alpha=2", spJoined, spSplit)
	}
}

// TestProgramPhasesMapToSections ensures generated programs only use phase
// names the profile conversion understands, in both modes.
func TestProgramPhasesMapToSections(t *testing.T) {
	ds := testDataset(t, 1024)
	for _, mode := range []contend.Mode{contend.Joined, contend.Split} {
		w := contend.New()
		w.Cfg.Mode = mode
		r, err := workload.RunSim(w, ds, sim.DefaultConfig(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Profile(); err != nil {
			t.Errorf("%v: profile conversion: %v", mode, err)
		}
		names := r.PhaseNames()
		wantRed := mode == contend.Split
		hasRed := false
		for _, n := range names {
			if n == "reduction" {
				hasRed = true
			}
		}
		if hasRed != wantRed {
			t.Errorf("%v: phases %v, reduction presence want %v", mode, names, wantRed)
		}
	}
}

// TestBuildProgramReservesExactStreams checks that BuildProgram allocates
// each stream once at its final length: every stream of a quick program
// (an eighth of the default trace, halved by the contend sweeps' scale)
// has cap == len, in both modes and at core counts that do and do not
// divide the trace evenly. A 32-byte line size changes every table range's
// op count.
func TestBuildProgramReservesExactStreams(t *testing.T) {
	ds := testDataset(t, contend.New().DefaultSpec().N/8)
	for _, mode := range []contend.Mode{contend.Joined, contend.Split} {
		for _, cores := range []int{1, 2, 3, 8, 16} {
			for _, lineSz := range []int{64, 32} {
				w := contend.New()
				w.Cfg.Mode = mode
				cfg := sim.DefaultConfig(cores)
				cfg.LineSz = lineSz
				prog, err := w.BuildProgram(ds, cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				for id, s := range prog.Streams {
					if cap(s) != len(s) {
						t.Errorf("%v p=%d line=%d: stream %d has len %d, cap %d", mode, cores, lineSz, id, len(s), cap(s))
					}
				}
			}
		}
	}
}
