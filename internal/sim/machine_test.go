package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mergescale/internal/topology"
)

func mustMachine(t *testing.T, cores int) *Machine {
	t.Helper()
	m, err := NewMachine(DefaultConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestComputeTiming(t *testing.T) {
	m := mustMachine(t, 1)
	prog, err := NewBuilder(1).Compute(0, 100).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	// 100 ops at issue width 4 = 25 cycles.
	if res.Cycles != 25 {
		t.Errorf("cycles = %d, want 25", res.Cycles)
	}
	if res.Counters.ComputeOps != 100 {
		t.Errorf("compute ops = %d", res.Counters.ComputeOps)
	}
}

// TestRunClockLimit checks that a core clock never passes maxCoreTime,
// where it would no longer fit a scheduler key: a clock may reach the
// limit, but an op or a barrier release that would pass it makes Run
// return an error instead of wrapping.
func TestRunClockLimit(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.IssueWidth = 1
	run := func(cfg Config, build func(b *Builder)) (Result, error) {
		t.Helper()
		b := NewBuilder(cfg.Cores)
		build(b)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.Run(prog)
	}

	res, err := run(cfg, func(b *Builder) { b.Compute(0, maxCoreTime) })
	if err != nil || res.Cycles != maxCoreTime {
		t.Errorf("clock at the limit: cycles %d, err %v; want %d, nil", res.Cycles, err, uint64(maxCoreTime))
	}
	for name, build := range map[string]func(b *Builder){
		"one MaxOpArg compute": func(b *Builder) { b.Compute(0, MaxOpArg) },
		"one past the limit":   func(b *Builder) { b.Compute(1, maxCoreTime).Compute(1, 1) },
		"load past the limit":  func(b *Builder) { b.Compute(0, maxCoreTime).Load(0, 0) },
		"barrier release":      func(b *Builder) { b.Compute(1, maxCoreTime).Barrier() },
	} {
		if _, err := run(cfg, build); err == nil {
			t.Errorf("%s: Run returned no error", name)
		}
	}
	huge := cfg
	huge.BarLat = math.MaxUint64
	if _, err := run(huge, func(b *Builder) { b.Barrier() }); err == nil {
		t.Error("barrier latency past the limit: Run returned no error")
	}
}

// TestHopsMatchTopology checks the machine's stored mesh coordinates
// against topology.HopDistance for every core pair.
func TestHopsMatchTopology(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 5, 8, 16, 17, 64, 255, 256} {
		m := mustMachine(t, cores)
		net, err := topology.New(topology.Mesh2D, cores)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < cores; a++ {
			for b := 0; b < cores; b++ {
				want, err := net.HopDistance(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if got := m.hops(a, b); got != uint64(want) {
					t.Fatalf("p=%d: hops(%d, %d) = %d, want %d", cores, a, b, got, want)
				}
			}
		}
	}
}

func TestMachineSingleUse(t *testing.T) {
	m := mustMachine(t, 1)
	prog, _ := NewBuilder(1).Compute(0, 4).Build()
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err == nil {
		t.Error("second Run should fail")
	}
}

func TestColdMissThenHit(t *testing.T) {
	m := mustMachine(t, 1)
	prog, _ := NewBuilder(1).Load(0, 0x1000).Load(0, 0x1000).Load(0, 0x1008).Build()
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	// First load misses everywhere; the next two hit L1 (same 64B line).
	if res.Counters.L1Misses != 1 {
		t.Errorf("L1 misses = %d, want 1", res.Counters.L1Misses)
	}
	if res.Counters.L1Hits != 2 {
		t.Errorf("L1 hits = %d, want 2", res.Counters.L1Hits)
	}
	if res.Counters.L2Misses != 1 {
		t.Errorf("L2 misses = %d, want 1", res.Counters.L2Misses)
	}
}

func TestLoadLatencyOrdering(t *testing.T) {
	cfg := DefaultConfig(1)
	run := func(build func(*Builder)) uint64 {
		m, _ := NewMachine(cfg)
		b := NewBuilder(1)
		build(b)
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	hit := run(func(b *Builder) { b.Load(0, 0); b.Load(0, 0) })
	coldOnly := run(func(b *Builder) { b.Load(0, 0) })
	l1HitCycles := hit - coldOnly
	if l1HitCycles != cfg.L1Lat {
		t.Errorf("L1 hit latency = %d, want %d", l1HitCycles, cfg.L1Lat)
	}
	// A cold miss must cost at least L2 + memory latency.
	if coldOnly < cfg.L1Lat+cfg.L2Lat+cfg.MemLat {
		t.Errorf("cold miss latency %d too low", coldOnly)
	}
}

func TestStoreUpgradeInvalidates(t *testing.T) {
	m := mustMachine(t, 2)
	// Both cores read the line (Shared), then core 0 writes it.
	prog, err := NewBuilder(2).
		Load(0, 0).Load(1, 0).
		Barrier().
		Store(0, 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", res.Counters.Invalidations)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	m := mustMachine(t, 2)
	// Core 1 writes a line (Modified), then core 0 reads it.
	prog, err := NewBuilder(2).
		Store(1, 0).
		Barrier().
		Load(0, 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.C2CTransfers != 1 {
		t.Errorf("c2c transfers = %d, want 1", res.Counters.C2CTransfers)
	}
}

func TestMergePhaseTransfersGrowWithCores(t *testing.T) {
	// The mechanism behind the paper's observation: when each of p cores
	// writes its own partial line and core 0 then reads them all, the
	// number of coherence transfers (and the merge latency) grows with p.
	var prevXfers, prevMerge uint64
	for _, cores := range []int{2, 4, 8, 16} {
		m := mustMachine(t, cores)
		b := NewBuilder(cores)
		b.Phase("parallel")
		for id := 0; id < cores; id++ {
			b.Store(id, uint64(id)*64)
		}
		b.Barrier()
		b.Phase("merge")
		for id := 0; id < cores; id++ {
			b.Load(0, uint64(id)*64)
		}
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		xfers := res.Counters.C2CTransfers
		if xfers != uint64(cores-1) {
			t.Errorf("cores=%d: c2c transfers = %d, want %d", cores, xfers, cores-1)
		}
		merge := res.PhaseCycles("merge")
		if prevXfers != 0 && (xfers <= prevXfers || merge <= prevMerge) {
			t.Errorf("cores=%d: merge cost did not grow (xfers %d->%d, cycles %d->%d)",
				cores, prevXfers, xfers, prevMerge, merge)
		}
		prevXfers, prevMerge = xfers, merge
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := mustMachine(t, 2)
	// Core 0 does much more work before the barrier; afterwards both cores
	// should have identical clocks.
	prog, err := NewBuilder(2).
		Compute(0, 4000).Compute(1, 4).
		Barrier().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreTime[0] != res.CoreTime[1] {
		t.Errorf("clocks diverge after barrier: %v", res.CoreTime)
	}
	wantMin := uint64(1000) + m.cfg.BarLat
	if res.Cycles < wantMin {
		t.Errorf("cycles = %d, want >= %d", res.Cycles, wantMin)
	}
	if res.Counters.Barriers != 1 {
		t.Errorf("barriers = %d", res.Counters.Barriers)
	}
}

func TestPhaseAccounting(t *testing.T) {
	m := mustMachine(t, 2)
	prog, err := NewBuilder(2).
		Phase("init").
		Compute(0, 400).Compute(1, 400).
		Barrier().
		Phase("parallel").
		Compute(0, 4000).Compute(1, 4000).
		Barrier().
		Phase("serial").
		Compute(0, 800).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	names := res.PhaseNames()
	if len(names) != 3 || names[0] != "init" || names[1] != "parallel" || names[2] != "serial" {
		t.Fatalf("phase names = %v", names)
	}
	init := res.PhaseCycles("init")
	par := res.PhaseCycles("parallel")
	ser := res.PhaseCycles("serial")
	if init+par+ser != res.Cycles {
		t.Errorf("phases don't cover run: %d+%d+%d != %d", init, par, ser, res.Cycles)
	}
	if ser != 200 {
		t.Errorf("serial phase = %d cycles, want 200", ser)
	}
	if par <= init {
		t.Errorf("parallel phase (%d) should exceed init (%d)", par, init)
	}
}

func TestProgramValidation(t *testing.T) {
	// Mismatched barrier counts.
	p := NewProgram(2)
	p.Streams[0] = []Op{makeOp(OpBarrier, 0)}
	p.Streams[1] = nil
	if err := p.Validate(); err == nil {
		t.Error("mismatched barriers should fail validation")
	}
	// Phase marker on non-zero core.
	p = NewProgram(2)
	p.Phases = []string{"x"}
	p.Streams[1] = []Op{makeOp(OpPhase, 0)}
	if err := p.Validate(); err == nil {
		t.Error("phase on core 1 should fail validation")
	}
	// Empty phase name.
	p = NewProgram(1)
	p.Phases = []string{""}
	p.Streams[0] = []Op{makeOp(OpPhase, 0)}
	if err := p.Validate(); err == nil {
		t.Error("empty phase name should fail validation")
	}
	// Op kind outside the enumeration.
	p = NewProgram(1)
	p.Streams[0] = []Op{makeOp(OpKind(7), 0)}
	if err := p.Validate(); err == nil {
		t.Error("unknown op kind should fail validation")
	}
	// Empty program.
	p = &Program{}
	if err := p.Validate(); err == nil {
		t.Error("empty program should fail validation")
	}
}

func TestRunRejectsWrongCoreCount(t *testing.T) {
	m := mustMachine(t, 2)
	prog, _ := NewBuilder(1).Compute(0, 1).Build()
	if _, err := m.Run(prog); err == nil {
		t.Error("core-count mismatch should fail")
	}
}

func TestLoadStoreRangeLineGranularity(t *testing.T) {
	b := NewBuilder(1)
	b.LoadRange(0, 10, 100, 64) // bytes 10..109 -> lines 0 and 1
	prog, _ := b.Build()
	if len(prog.Streams[0]) != 2 {
		t.Errorf("LoadRange emitted %d ops, want 2", len(prog.Streams[0]))
	}
	b = NewBuilder(1)
	b.StoreRange(0, 0, 64, 64)
	b.StoreRange(0, 64, 0, 64) // zero bytes: no ops
	prog, _ = b.Build()
	if len(prog.Streams[0]) != 1 {
		t.Errorf("StoreRange emitted %d ops, want 1", len(prog.Streams[0]))
	}
}

// TestDeterminism runs a fixed phased program on two fresh machines and
// once more on a Reset machine, and requires the full Result — cycles,
// counters, per-core clocks and phases — to match.
func TestDeterminism(t *testing.T) {
	checkDeterministic(t, "fixed", DefaultConfig(4), func() *Program {
		b := NewBuilder(4)
		b.Phase("parallel")
		for id := 0; id < 4; id++ {
			for i := 0; i < 50; i++ {
				b.Compute(id, uint64(10+id))
				b.Load(id, uint64(id*4096+i*64))
				b.Store(id, uint64(id*4096+i*64))
			}
		}
		b.Barrier()
		b.Phase("merge")
		for id := 0; id < 4; id++ {
			b.Load(0, uint64(id*4096))
		}
		prog, _ := b.Build()
		return prog
	})
}

// TestRunDeterministicRandom applies the TestDeterminism check to
// randomProgram shapes over random core counts and cache sizes.
func TestRunDeterministicRandom(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cores := []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)]
		cfg := DefaultConfig(cores)
		if rng.Intn(2) == 0 {
			// Small caches force L1 and L2 evictions.
			cfg.L1Size = 4 << 10
			cfg.L2Size = 64 << 10
		}
		segments := 1 + rng.Intn(4)
		label := fmt.Sprintf("random seed %d cores %d", seed, cores)
		checkDeterministic(t, label, cfg, func() *Program {
			return randomProgram(t, rand.New(rand.NewSource(seed)), cores, segments)
		})
	}
}

// checkDeterministic runs build's program on two fresh machines and once
// more on a Reset machine, and requires all three Results to match.
func checkDeterministic(t *testing.T, label string, cfg Config, build func() *Program) {
	t.Helper()
	m1, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err1 := m1.Run(build())
	r2, err2 := m2.Run(build())
	if err1 != nil || err2 != nil {
		t.Fatal(label, err1, err2)
	}
	diffResults(t, label, r1, r2)
	want := cloneResult(r1)
	m1.Reset()
	r3, err := m1.Run(build())
	if err != nil {
		t.Fatal(label, err)
	}
	diffResults(t, label+" after Reset", want, r3)
}

// cloneResult deep-copies a Result out of its machine's scratch so it
// survives the machine's next Reset/Run.
func cloneResult(r Result) Result {
	r.Phases = slices.Clone(r.Phases)
	r.CoreTime = slices.Clone(r.CoreTime)
	return r
}

// diffResults fails the test on the first field where two Results differ.
func diffResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: Cycles %d, want %d", label, got.Cycles, want.Cycles)
	}
	if got.Counters != want.Counters {
		t.Errorf("%s: Counters\n got %+v\nwant %+v", label, got.Counters, want.Counters)
	}
	if !slices.Equal(got.CoreTime, want.CoreTime) {
		t.Errorf("%s: CoreTime\n got %v\nwant %v", label, got.CoreTime, want.CoreTime)
	}
	if !slices.Equal(got.Phases, want.Phases) {
		t.Errorf("%s: Phases\n got %v\nwant %v", label, got.Phases, want.Phases)
	}
}

// randomProgram generates a valid program mixing compute bursts, loads and
// stores over shared hot lines, a shared read region and private streams,
// with phase markers and barriers — the full op vocabulary.
func randomProgram(t testing.TB, rng *rand.Rand, cores, segments int) *Program {
	t.Helper()
	b := NewBuilder(cores)
	names := []string{"init", "parallel", "reduction", "serial"}
	for seg := 0; seg < segments; seg++ {
		if rng.Intn(2) == 0 {
			b.Phase(names[rng.Intn(len(names))])
		}
		for id := 0; id < cores; id++ {
			for k, n := 0, rng.Intn(40); k < n; k++ {
				switch rng.Intn(5) {
				case 0:
					b.Compute(id, uint64(1+rng.Intn(50)))
				case 1: // shared read-mostly region
					b.Load(id, 0x10000+64*uint64(rng.Intn(64)))
				case 2: // shared hot lines (upgrades, invalidation storms)
					b.Store(id, 0x20000+64*uint64(rng.Intn(8)))
				case 3: // private streaming (misses, evictions)
					b.Load(id, uint64(id+1)<<20+64*uint64(rng.Intn(2048)))
				case 4: // read-modify-write ping-pong
					addr := 0x30000 + 64*uint64(rng.Intn(16))
					b.Load(id, addr).Store(id, addr)
				}
			}
		}
		b.Barrier()
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestAccessCountsConserved(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	pred := func(seed uint16) bool {
		m, err := NewMachine(DefaultConfig(2))
		if err != nil {
			return false
		}
		b := NewBuilder(2)
		v := uint64(seed)
		for i := 0; i < 60; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			id := int(v>>62) & 1
			addr := (v >> 20) % 8192
			if v&1 == 0 {
				b.Load(id, addr)
			} else {
				b.Store(id, addr)
			}
		}
		b.Barrier()
		prog, err := b.Build()
		if err != nil {
			return false
		}
		res, err := m.Run(prog)
		if err != nil {
			return false
		}
		c := res.Counters
		// Every load/store either hits or misses L1.
		return c.L1Hits+c.L1Misses == c.Loads+c.Stores &&
			c.Loads+c.Stores == 60 &&
			// L2 lookups happen only on the L1 misses that were not
			// satisfied by a cache-to-cache transfer.
			c.L2Hits+c.L2Misses == c.L1Misses-c.C2CTransfers
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Manually build an invalid program that bypasses the builder's
	// validation (equal barrier counts) but where one core finishes before
	// reaching a barrier the other waits on — constructed by giving core 1
	// a barrier before its stream is exhausted while core 0 has none.
	p := &Program{Streams: [][]Op{
		{makeOp(OpCompute, 1)},
		{makeOp(OpBarrier, 0)},
	}}
	m := mustMachine(t, 2)
	if _, err := m.Run(p); err == nil {
		t.Error("expected deadlock or validation error")
	}
}

// TestDistinctPhaseNamesSpill covers both extraction regimes: the
// allocation-free containment scan below distinctSpillAt and the seen-set
// it spills to above it. First-appearance order and dedup must hold
// across the switch, including re-mentions of pre-spill names afterward.
func TestDistinctPhaseNamesSpill(t *testing.T) {
	var phases []PhaseTime
	var want []string
	for i := 0; i < 3*distinctSpillAt; i++ {
		name := fmt.Sprintf("phase-%02d", i)
		want = append(want, name)
		phases = append(phases,
			PhaseTime{Name: name},
			PhaseTime{Name: name},      // immediate repeat
			PhaseTime{Name: want[i/2]}) // re-mention an earlier name
	}
	if got := DistinctPhaseNames(phases); !slices.Equal(got, want) {
		t.Errorf("DistinctPhaseNames over spill:\n got %v\nwant %v", got, want)
	}
	if got := DistinctPhaseNames(nil); got != nil {
		t.Errorf("DistinctPhaseNames(nil) = %v, want nil", got)
	}
}
