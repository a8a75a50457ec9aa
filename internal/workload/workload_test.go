package workload_test

import (
	"context"
	"runtime"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

func testData(t *testing.T, seed uint64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{Label: "wl", N: 1200, D: 3, C: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// serialEngine is the serial, uncached reference engine: every job runs
// inline on the caller, in submission order, computed from scratch.
func serialEngine() *engine.Engine {
	return engine.New(engine.Config{Workers: 1, DisableCache: true})
}

func allWorkloads() []workload.Native {
	km := kmeans.New()
	km.Cfg.Iters = 2
	fz := fuzzy.New()
	fz.Cfg.Iters = 2
	return []workload.Native{km, fz, hop.New()}
}

func TestPartialBaseAddressesDisjoint(t *testing.T) {
	for id := 0; id < 63; id++ {
		lo := workload.PartialBase(id)
		hi := workload.PartialBase(id + 1)
		if hi-lo != workload.PartialAlign {
			t.Fatalf("partial regions not uniformly spaced at id %d", id)
		}
	}
	if workload.PartialBase(0) <= workload.AddrCenters {
		t.Error("partials overlap the centers region")
	}
	if workload.AddrPoints <= workload.PartialBase(64) {
		t.Error("points overlap the partial regions")
	}
}

func TestSimProfileForEachWorkload(t *testing.T) {
	ds := testData(t, 41)
	for _, w := range allWorkloads() {
		run, err := workload.RunSim(w, ds, sim.DefaultConfig(4), 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if run.PhaseCycles("parallel") == 0 || len(run.PhaseNames()) == 0 {
			t.Errorf("%s: phases not recorded: %v", w.Name(), run.Phases)
		}
		prof, err := run.Profile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if prof.Threads != 4 || prof.Name != w.Name() {
			t.Errorf("%s: profile metadata %+v", w.Name(), prof)
		}
		if prof.SectionWork(trace.SecParallel) == 0 {
			t.Errorf("%s: no parallel cycles", w.Name())
		}
		if prof.SectionWork(trace.SecReduction) == 0 {
			t.Errorf("%s: no reduction cycles", w.Name())
		}
	}
}

func TestSimSpeedupCurveMonotone(t *testing.T) {
	ds := testData(t, 42)
	km := kmeans.New()
	km.Cfg.Iters = 2
	sp, err := workload.SimSpeedupCurve(context.Background(), serialEngine(), km, ds, []int{1, 2, 4, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp[1] != 1 {
		t.Errorf("speedup at 1 core = %g, want 1", sp[1])
	}
	prev := 0.0
	for _, c := range []int{1, 2, 4, 8} {
		if sp[c] < prev {
			t.Errorf("speedup not monotone at %d cores: %v", c, sp)
		}
		prev = sp[c]
	}
	if sp[8] < 4 {
		t.Errorf("8-core speedup %.2f too low for a scalable workload", sp[8])
	}
	if sp[8] > 8.01 {
		t.Errorf("8-core speedup %.2f above linear", sp[8])
	}
}

func TestSimSpeedupCurveNeedsBase(t *testing.T) {
	ds := testData(t, 43)
	km := kmeans.New()
	km.Cfg.Iters = 1
	if _, err := workload.SimSpeedupCurve(context.Background(), serialEngine(), km, ds, []int{2, 4}, 1); err == nil {
		t.Error("curve without a 1-core run should fail")
	}
}

func TestSimRunProfileRejectsUnknownPhase(t *testing.T) {
	run := workload.SimRun{Workload: "x", Cores: 1, Phases: []sim.PhaseTime{{Name: "warmup", Cycles: 10}}}
	if _, err := run.Profile(); err == nil {
		t.Error("unknown phase should fail")
	}
	run = workload.SimRun{Workload: "x", Cores: 1, Phases: []sim.PhaseTime{{Name: "parallel"}}}
	if _, err := run.Profile(); err == nil {
		t.Error("zero-cycle run should fail")
	}
	if _, err := (workload.SimRun{}).Profile(); err == nil {
		t.Error("empty run should fail")
	}
}

func TestNativeProfilesThreadGrid(t *testing.T) {
	ds := testData(t, 44)
	km := kmeans.New()
	km.Cfg.Iters = 2
	profiles, err := workload.NativeProfiles(context.Background(), serialEngine(), km, ds, []int{1, 3, 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 3 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	for i, want := range []int{1, 3, 5} {
		if profiles[i].Threads != want {
			t.Errorf("profile %d threads = %d, want %d", i, profiles[i].Threads, want)
		}
	}
}

// TestSimSerialGrowthAcrossWorkloads is the simulation counterpart of the
// paper's central observation, checked end-to-end for all three apps: the
// simulated serial+reduction time grows monotonically with core count.
func TestSimSerialGrowthAcrossWorkloads(t *testing.T) {
	ds := testData(t, 45)
	for _, w := range allWorkloads() {
		profiles, err := workload.SimProfiles(context.Background(), serialEngine(), w, ds, []int{1, 2, 4, 8}, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		_, norm, err := trace.GrowthSeries(profiles, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		for i := 1; i < len(norm); i++ {
			if norm[i] <= norm[i-1] {
				t.Errorf("%s: serial growth not increasing: %v", w.Name(), norm)
			}
		}
		if norm[len(norm)-1] < 1.5 {
			t.Errorf("%s: serial growth at 8 cores only %.2fx — merge cost not captured", w.Name(), norm[len(norm)-1])
		}
	}
}

// TestShapeOnlyPathsDrawNoPoints: Generate, count-mode native profiles and
// every simulator program need only a data set's shape, so on a fresh
// 64 MiB spec none of them may draw its points. Each path's allocation
// must stay far below the point matrix it would otherwise materialize.
func TestShapeOnlyPathsDrawNoPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	const scale = 1 << 10 // programs over 1024 points
	spec := datagen.Spec{Label: "shape-only", N: 1 << 20, D: 8, C: 8, Seed: 4242}
	pointBytes := uint64(spec.N * spec.D * 8)
	budget := pointBytes / 64 // 1 MiB
	allocated := func(name string, f func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s allocated %d bytes, budget %d (the points are %d)", name, got, budget, pointBytes)
		}
	}
	var ds *datagen.Dataset
	allocated("Generate", func() (err error) {
		ds, err = datagen.Generate(spec)
		return err
	})
	cfg := sim.DefaultConfig(4)
	buildProgram := func(w workload.Workload) {
		allocated(w.Name()+" BuildProgram", func() error {
			_, err := w.BuildProgram(ds, cfg, scale)
			return err
		})
	}
	for _, w := range allWorkloads() {
		if w.Name() != "hop" {
			allocated(w.Name()+" count-mode RunNative", func() error {
				_, err := w.RunNative(ds, 4, false)
				return err
			})
		}
		buildProgram(w)
	}
	buildProgram(contend.New())
}
