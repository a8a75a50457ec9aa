package sim_test

import (
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

// Full Machine.Run benchmarks, one per workload. Each op costs what a
// pooled reuse in an engine job (workload.RunSim) costs: Reset, then Run.
// The benchmark holds its one machine, built and run once before the timer
// starts so its scratch exists as a pooled machine's does, rather than
// drawing from the sync.Pool, which a GC may empty between runs and so
// charge a construction to a random op. Program construction is hoisted
// out of the loop so the numbers isolate the simulator itself.
func benchMachineRun(b *testing.B, w workload.Workload, cores, scale int) {
	b.Helper()
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 2048, D: 4, C: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(cores)
	prog, err := w.BuildProgram(ds, cfg, scale)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimMachineReset measures the machine pool's per-reuse cost:
// Reset after a real 16-core kmeans run, which clears every set the run
// wrote. Each run is outside the timer; BenchmarkSimNewMachine is the
// construction cost the pool saves instead.
func BenchmarkSimMachineReset(b *testing.B) {
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 2048, D: 4, C: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(16)
	prog, err := newQuickKMeans().BuildProgram(ds, cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m.Reset()
	}
}

// Program construction benchmarks: one BuildProgram per iteration, with
// allocations reported, so bytes_per_op tracks the size of the op streams
// a workload compiles to.
func benchBuildProgram(b *testing.B, w workload.Workload, cores, scale int) {
	b.Helper()
	benchBuildProgramSpec(b, w, datagen.Spec{Label: "bench", N: 2048, D: 4, C: 4, Seed: 7}, cores, scale)
}

func benchBuildProgramSpec(b *testing.B, w workload.Workload, spec datagen.Spec, cores, scale int) {
	b.Helper()
	ds, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(cores)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.BuildProgram(ds, cfg, scale); err != nil {
			b.Fatal(err)
		}
	}
}

func newQuickKMeans() workload.Workload {
	w := kmeans.New()
	w.Cfg.Iters = 2
	return w
}

func newQuickFuzzy() workload.Workload {
	w := fuzzy.New()
	w.Cfg.Iters = 2
	return w
}

// The 256-core hop rows run at scale 1: hop needs at least two points
// per core, and the bench dataset divided by 4 leaves too few.
func BenchmarkSimRunKMeans8(b *testing.B)   { benchMachineRun(b, newQuickKMeans(), 8, 4) }
func BenchmarkSimRunKMeans64(b *testing.B)  { benchMachineRun(b, newQuickKMeans(), 64, 4) }
func BenchmarkSimRunKMeans256(b *testing.B) { benchMachineRun(b, newQuickKMeans(), 256, 4) }
func BenchmarkSimRunFuzzy8(b *testing.B)    { benchMachineRun(b, newQuickFuzzy(), 8, 4) }
func BenchmarkSimRunFuzzy64(b *testing.B)   { benchMachineRun(b, newQuickFuzzy(), 64, 4) }
func BenchmarkSimRunFuzzy256(b *testing.B)  { benchMachineRun(b, newQuickFuzzy(), 256, 4) }
func BenchmarkSimRunHop8(b *testing.B)      { benchMachineRun(b, hop.New(), 8, 4) }
func BenchmarkSimRunHop64(b *testing.B)     { benchMachineRun(b, hop.New(), 64, 4) }
func BenchmarkSimRunHop256(b *testing.B)    { benchMachineRun(b, hop.New(), 256, 1) }

func BenchmarkSimBuildProgramKMeans8(b *testing.B) { benchBuildProgram(b, newQuickKMeans(), 8, 4) }
func BenchmarkSimBuildProgramFuzzy8(b *testing.B)  { benchBuildProgram(b, newQuickFuzzy(), 8, 4) }
func BenchmarkSimBuildProgramHop8(b *testing.B)    { benchBuildProgram(b, hop.New(), 8, 4) }

// BenchmarkSimBuildProgramContend8 builds the quick ext-contend-split
// program at p=8: an eighth of contend's default trace at the contend
// sweeps' scale of 2, in split mode, whose reduction phases make it the
// larger of the two modes.
func BenchmarkSimBuildProgramContend8(b *testing.B) {
	w := contend.New()
	w.Cfg.Mode = contend.Split
	spec := w.DefaultSpec()
	spec.N /= 8
	benchBuildProgramSpec(b, w, spec, 8, 2)
}
