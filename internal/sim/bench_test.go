package sim

import "testing"

// Microbenchmarks of the simulator hot path. scripts/bench.sh records the
// BenchmarkSim* results as BENCH_sim.json in the repo root, so directory,
// L1 and full-run costs are tracked as data across PRs; ci.sh runs one
// iteration of each so they cannot rot.

// BenchmarkSimDirectoryHit measures steady-state directory gets (the
// per-access table lookup).
func BenchmarkSimDirectoryHit(b *testing.B) {
	d := newDirectory()
	const lines = 8192
	for i := uint64(0); i < lines; i++ {
		d.get(i << 6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := d.get(uint64(i%lines) << 6)
		e.addSharer(i % 64)
	}
}

// BenchmarkSimDirectoryGrow measures cold-table population: every get
// inserts, amortizing growth/rehash.
func BenchmarkSimDirectoryGrow(b *testing.B) {
	const lines = 8192
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := newDirectory()
		for j := uint64(0); j < lines; j++ {
			d.get(j << 6)
		}
	}
}

// BenchmarkSimL1Hit measures the pure L1 read-hit path through access().
func BenchmarkSimL1Hit(b *testing.B) {
	m, err := NewMachine(DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	var ctr Counters
	m.access(0, 0x1000, false, &ctr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.access(0, 0x1000, false, &ctr)
	}
}

// BenchmarkSimAccessMix measures a steady-state protocol mix on 4 cores:
// private streaming (L1/L2 misses + evictions) plus a contended shared
// region (upgrades, invalidations, interventions).
func BenchmarkSimAccessMix(b *testing.B) {
	m, err := NewMachine(DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	var ctr Counters
	const lines = 4096
	step := func(i uint64) {
		core := int(i % 4)
		m.access(core, 0x1000000+64*(i%lines), false, &ctr)
		m.access(core, 0x100000+64*(i%64), i%8 == 0, &ctr)
	}
	for i := uint64(0); i < lines; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(uint64(i))
	}
}

// BenchmarkSimNewMachine is the construction cost Reset avoids
// (BenchmarkSimMachineReset, in bench_workload_test.go, is the other side).
func BenchmarkSimNewMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMachine(DefaultConfig(16)); err != nil {
			b.Fatal(err)
		}
	}
}
