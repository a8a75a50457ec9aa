// Package mergescale_test is the benchmark harness: one benchmark per
// table and figure of the paper (regenerating the artifact end-to-end),
// plus microbenchmarks of the model, the simulator, and the native
// workloads. Run with:
//
//	go test -bench=. -benchmem
package mergescale_test

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	"mergescale/internal/core"
	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/kmeans"
)

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// The serial, uncached engine runs every sub-job inline and from
	// scratch, so each iteration regenerates the artifact in full.
	opt := experiments.Options{Quick: true, Engine: engine.New(engine.Config{Workers: 1, DisableCache: true})}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc, err := e.Run(ctx, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := doc.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRegistry regenerates the FULL registry per iteration with the given
// worker count. A fresh engine per iteration keeps iterations cache-cold,
// so the comparison measures fan-out, not result replay.
func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	reg := experiments.Registry()
	opt := experiments.Options{Quick: true}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Config{Workers: workers})
		for _, o := range experiments.RunAll(ctx, eng, reg, opt) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			if err := o.Doc.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRegistrySerial is the 1-worker baseline for the engine speedup
// acceptance (compare against BenchmarkRegistryEngine ns/op).
func BenchmarkRegistrySerial(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRegistryEngine fans the registry out across GOMAXPROCS workers
// (at least 4): the ISSUE acceptance is >= 2x over BenchmarkRegistrySerial
// on 4+ cores.
func BenchmarkRegistryEngine(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	benchRegistry(b, workers)
}

// TestRegistryEngineSpeedup asserts the >= 2x wall-clock speedup of the
// engine over serial execution on the full registry. The speedup needs
// real parallel hardware, so the assertion only arms on 4+ CPUs without
// the race detector (whose serialization voids wall-clock comparisons);
// elsewhere the test just records the measured ratio. Best-of-two
// measurements per mode damp scheduler noise.
func TestRegistryEngineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	reg := experiments.Registry()
	opt := experiments.Options{Quick: true}
	ctx := context.Background()
	timeRun := func(workers int) time.Duration {
		start := time.Now()
		eng := engine.New(engine.Config{Workers: workers})
		for _, o := range experiments.RunAll(ctx, eng, reg, opt) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		return time.Since(start)
	}
	best := func(workers int) time.Duration {
		d := timeRun(workers)
		if d2 := timeRun(workers); d2 < d {
			d = d2
		}
		return d
	}
	timeRun(1) // warm OS caches so the serial measurement is not penalized
	serial := best(1)
	parallel := best(runtime.GOMAXPROCS(0))
	ratio := float64(serial) / float64(parallel)
	t.Logf("registry serial %v, engine %v, speedup %.2fx on %d CPUs (race=%v)", serial, parallel, ratio, runtime.NumCPU(), raceEnabled)
	if runtime.NumCPU() >= 4 && !raceEnabled && ratio < 2 {
		t.Errorf("engine speedup %.2fx on %d CPUs, want >= 2x", ratio, runtime.NumCPU())
	}
}

// One benchmark per table.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// One benchmark per figure.
func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { benchExperiment(b, "fig2c") }
func BenchmarkFig2d(b *testing.B) { benchExperiment(b, "fig2d") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }

// Ablation benches.
func BenchmarkAblGrowth(b *testing.B)   { benchExperiment(b, "abl-growth") }
func BenchmarkAblTopology(b *testing.B) { benchExperiment(b, "abl-topology") }
func BenchmarkAblStrategy(b *testing.B) { benchExperiment(b, "abl-strategy") }
func BenchmarkAblBudget(b *testing.B)   { benchExperiment(b, "abl-budget") }

// BenchmarkModelSweep measures the raw analytical model: a full Figure 4
// panel (4 series × the power-of-two grid) per iteration.
func BenchmarkModelSweep(b *testing.B) {
	bgt := core.DefaultBudget
	rs := core.PowerOfTwoRs(bgt.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.999, 0.99} {
			for _, g := range []core.GrowthKind{core.GrowthLinear, core.GrowthLog} {
				app := core.AppParams{F: f, FCon: 0.6, FOred: 0.8, Growth: g}
				if _, ok := core.Best(core.SweepSymmetric(app, bgt, rs)); !ok {
					b.Fatal("empty sweep")
				}
			}
		}
	}
}

// BenchmarkSimulatorKMeans16 measures one 16-core simulated kmeans run.
func BenchmarkSimulatorKMeans16(b *testing.B) {
	w := kmeans.New()
	w.Cfg.Iters = 3
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 4096, D: 9, C: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := w.BuildProgram(ds, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorKMeans16Pooled is BenchmarkSimulatorKMeans16 drawing
// machines from the machine pool (the path engine jobs take via
// workload.RunSim) instead of constructing one per run.
func BenchmarkSimulatorKMeans16Pooled(b *testing.B) {
	w := kmeans.New()
	w.Cfg.Iters = 3
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 4096, D: 9, C: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(16)
	prog, err := w.BuildProgram(ds, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.AcquireMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// BenchmarkNativeKMeans measures the native parallel kmeans iteration.
func BenchmarkNativeKMeans(b *testing.B) {
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 8192, D: 9, C: 8, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	ds.Points() // draw the points outside the timed loop
	cfg := kmeans.Config{K: 8, Iters: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := kmeans.Run(ds, cfg, 4, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReductionStrategies measures the three merge implementations.
func BenchmarkReductionStrategies(b *testing.B) {
	for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
		b.Run(s.String(), func(b *testing.B) {
			const threads, width = 16, 4096
			dst := make([]float64, width)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pv := parallel.NewPrivatized(threads, width)
				for id := 0; id < threads; id++ {
					buf := pv.Buf(id)
					for j := range buf {
						buf[j] = float64(id + j)
					}
				}
				for j := range dst {
					dst[j] = 0
				}
				if _, err := reduction.Reduce(s, pv, dst, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimSpeedupCurve measures the full Figure 2(a) inner loop for one
// workload.
func BenchmarkSimSpeedupCurve(b *testing.B) {
	w := kmeans.New()
	w.Cfg.Iters = 2
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 4096, D: 9, C: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, DisableCache: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.SimSpeedupCurve(context.Background(), eng, w, ds, []int{1, 2, 4, 8}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
