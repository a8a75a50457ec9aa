package contend_test

import (
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
)

// Full Machine.Run benchmarks for the contended workload, one per
// execution mode. Each op costs what a pooled reuse in an engine job
// costs: Reset, then Run. The benchmark holds its one machine, built and
// run once before the timer starts, rather than drawing from the
// sync.Pool, which a GC may empty between runs and so charge a
// construction to a random op. Program construction is hoisted out of the
// loop so the numbers isolate the simulator under invalidation-storm
// (joined) and privatized (split) traffic — the joined row measures the
// MESI directory under the heaviest line contention any tracked benchmark
// produces.
func benchContendRun(b *testing.B, mode contend.Mode, cores int) {
	b.Helper()
	w := contend.New()
	w.Cfg.Mode = mode
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 8192, D: 1, C: 1, Spread: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(cores)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContendJoined8(b *testing.B) { benchContendRun(b, contend.Joined, 8) }
func BenchmarkContendSplit8(b *testing.B)  { benchContendRun(b, contend.Split, 8) }
