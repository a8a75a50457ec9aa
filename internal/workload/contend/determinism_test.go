package contend_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
)

// TestJoinedRunsBitIdentical is the contended-run determinism property, in
// the style of dir_test.go's randomized property tests: across a seeded
// random sample of configurations, a joined-mode contended run must be
// bit-identical — cycles, phase timings, and every MESI counter — when
// repeated in-process, and when scheduled through engines with different
// worker counts (caching disabled, so every engine actually re-executes
// the simulation). Same seeded trace ⇒ same sim stats, no matter who runs
// it or how it is scheduled.
func TestJoinedRunsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		cfg := contend.Config{
			Keys:     64 << rng.Intn(4),   // 64..512
			Alpha:    1.1 + rng.Float64(), // (1.1, 2.1)
			OpsPerTx: 1 + rng.Intn(8),     // 1..8
			Rounds:   1 + rng.Intn(3),     // 1..3
			Mode:     contend.Joined,
		}
		w := contend.New()
		w.Cfg = cfg
		spec := w.DefaultSpec()
		spec.N = 1024 * (1 + rng.Intn(4))
		spec.Seed = rng.Uint64()
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cores := []int{2, 8}[rng.Intn(2)]
		mcfg := sim.DefaultConfig(cores)

		ref, err := workload.RunSim(w, ds, mcfg, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Repeated direct executions (pooled machines, memoized program).
		for i := 0; i < 2; i++ {
			got, err := workload.RunSim(w, ds, mcfg, 1)
			if err != nil {
				t.Fatalf("trial %d rerun %d: %v", trial, i, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d rerun %d: SimRun diverged:\n got %+v\nwant %+v", trial, i, got, ref)
			}
		}
		// Through engines with different worker counts. DisableCache forces
		// a real re-execution under each scheduling regime.
		for _, workers := range []int{1, 2, 4} {
			eng := engine.New(engine.Config{Workers: workers, DisableCache: true})
			runs, err := workload.SimRuns(context.Background(), eng, w, ds, []sim.Config{mcfg}, 1)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(runs[0], ref) {
				t.Fatalf("trial %d workers=%d: SimRun diverged:\n got %+v\nwant %+v", trial, workers, runs[0], ref)
			}
		}
	}
}
