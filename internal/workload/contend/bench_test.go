package contend_test

import (
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
)

// Full Machine.Run benchmarks for the contended workload, one per
// execution mode, drawing pooled machines exactly like engine jobs do.
// Program construction is hoisted out of the loop so the numbers isolate
// the simulator under invalidation-storm (joined) and privatized (split)
// traffic — the joined row measures the MESI directory under the
// heaviest line contention any tracked benchmark produces.
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

func BenchmarkContendJoined8(b *testing.B) { benchContendRun(b, contend.Joined, 8) }
func BenchmarkContendSplit8(b *testing.B)  { benchContendRun(b, contend.Split, 8) }

// Native-path benchmarks: one native run of the same trace on the host,
// atomics vs privatized buffers. Each op starts and closes its own worker
// team.
func benchContendNative(b *testing.B, mode contend.Mode, threads int) {
	b.Helper()
	cfg := contend.DefaultConfig()
	cfg.Mode = mode
	ds, err := datagen.Generate(datagen.Spec{Label: "bench", N: 8192, D: 1, C: 1, Spread: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := contend.Run(ds, cfg, threads, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContendNativeJoined4(b *testing.B) { benchContendNative(b, contend.Joined, 4) }
func BenchmarkContendNativeSplit4(b *testing.B)  { benchContendNative(b, contend.Split, 4) }
