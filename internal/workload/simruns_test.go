package workload_test

import (
	"context"
	"reflect"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/kmeans"
)

// TestSimRunsEngineMatchesSerial: the engine-sharded per-core runs must be
// identical to calling RunSim serially — same cycles, phases, counters.
func TestSimRunsEngineMatchesSerial(t *testing.T) {
	ds := testData(t, 43)
	km := kmeans.New()
	km.Cfg.Iters = 2
	cfgs := []sim.Config{sim.DefaultConfig(1), sim.DefaultConfig(2), sim.DefaultConfig(4)}

	serial := make([]workload.SimRun, len(cfgs))
	for i, cfg := range cfgs {
		r, err := workload.RunSim(km, ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	eng := engine.New(engine.Config{Workers: 4})
	sharded, err := workload.SimRuns(context.Background(), eng, km, ds, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("sharded runs differ from serial:\n%+v\nvs\n%+v", sharded, serial)
	}
	if st := eng.Stats(); st.Executed != uint64(len(cfgs)) {
		t.Errorf("executed %d jobs, want %d (one per core count)", st.Executed, len(cfgs))
	}
}

// TestSimCurveAndProfilesShareCache: the speedup curve and the profile
// series over the same grid must reuse the same per-core cache entries —
// the second call simulates nothing.
func TestSimCurveAndProfilesShareCache(t *testing.T) {
	ds := testData(t, 44)
	km := kmeans.New()
	km.Cfg.Iters = 2
	cores := []int{1, 2, 4}
	eng := engine.New(engine.Config{Workers: 2})

	if _, err := workload.SimProfiles(context.Background(), eng, km, ds, cores, 1); err != nil {
		t.Fatal(err)
	}
	executed := eng.Stats().Executed
	before := sim.Runs()

	sp, err := workload.SimSpeedupCurve(context.Background(), eng, km, ds, cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp[1] != 1.0 || len(sp) != len(cores) {
		t.Fatalf("speedup curve malformed: %v", sp)
	}
	if again := eng.Stats().Executed; again != executed {
		t.Errorf("speedup curve executed %d extra jobs, want 0 (shared cache)", again-executed)
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("speedup curve performed %d machine runs, want 0", ran)
	}
}

// TestSimRunsEngineMatchesLegacySerial pins the speedup curve against the
// serial derivation it is defined by: 1-core cycles over each core count's
// cycles, from RunSim called directly.
func TestSimRunsEngineMatchesLegacySerial(t *testing.T) {
	ds := testData(t, 45)
	km := kmeans.New()
	km.Cfg.Iters = 2
	cores := []int{1, 2}

	cycles := map[int]float64{}
	for _, c := range cores {
		r, err := workload.RunSim(km, ds, sim.DefaultConfig(c), 1)
		if err != nil {
			t.Fatal(err)
		}
		cycles[c] = float64(r.Cycles)
	}
	want := map[int]float64{}
	for _, c := range cores {
		want[c] = cycles[1] / cycles[c]
	}
	eng := engine.New(engine.Config{Workers: 2})
	got, err := workload.SimSpeedupCurve(context.Background(), eng, km, ds, cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("serial %v != sharded %v", want, got)
	}
}

// TestSimRunKeyCoversConfiguration: every input that changes a run's
// output must change its key, and scheduling-only state must not.
func TestSimRunKeyCoversConfiguration(t *testing.T) {
	ds := testData(t, 46)
	km := kmeans.New()
	km.Cfg.Iters = 2
	base := workload.SimRunKey(km, ds.Spec, sim.DefaultConfig(2), 1)

	if k := workload.SimRunKey(km, ds.Spec, sim.DefaultConfig(4), 1); k == base {
		t.Error("key ignores core count")
	}
	if k := workload.SimRunKey(km, ds.Spec, sim.DefaultConfig(2), 2); k == base {
		t.Error("key ignores scale")
	}
	spec2 := ds.Spec
	spec2.Seed++
	if k := workload.SimRunKey(km, spec2, sim.DefaultConfig(2), 1); k == base {
		t.Error("key ignores data-set spec")
	}
	km2 := kmeans.New()
	km2.Cfg.Iters = 3
	if k := workload.SimRunKey(km2, ds.Spec, sim.DefaultConfig(2), 1); k == base {
		t.Error("key ignores workload params")
	}
	km3 := kmeans.New()
	km3.Cfg.Iters = 2
	if k := workload.SimRunKey(km3, ds.Spec, sim.DefaultConfig(2), 1); k != base {
		t.Error("key depends on workload identity beyond Name()+Params()")
	}
}
