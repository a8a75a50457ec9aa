package sim

import (
	"sync"
	"testing"
)

// poolProgram builds a small two-core program exercising sharing,
// upgrades and barriers.
func poolProgram(t testing.TB) *Program {
	t.Helper()
	b := NewBuilder(2)
	b.Phase("parallel")
	for i := uint64(0); i < 256; i++ {
		addr := 0x1000 + 64*i
		b.Load(0, addr).Load(1, addr)
		if i%4 == 0 {
			b.Store(0, 0x100000+64*(i%8)).Store(1, 0x100000+64*(i%8))
		}
	}
	b.Barrier()
	b.Phase("serial")
	b.Compute(0, 100)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPooledMachineMatchesFresh locks the pooling contract: a reused
// (Reset) machine must produce bit-identical results to a fresh one.
func TestPooledMachineMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(2)
	prog := poolProgram(t)

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(prog)
	if err != nil {
		t.Fatal(err)
	}

	m, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	gen := m.Generation()
	m.Release()

	again, err := AcquireMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != m {
		t.Skip("pool did not return the same machine (GC may empty a sync.Pool); reuse not observable")
	}
	if again.Generation() <= gen {
		t.Errorf("generation did not advance across Release/Acquire: %d -> %d", gen, again.Generation())
	}
	got, err := again.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Counters != want.Counters {
		t.Errorf("pooled run diverged: cycles %d vs %d, counters %+v vs %+v",
			got.Cycles, want.Cycles, got.Counters, want.Counters)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("phase count %d vs %d", len(got.Phases), len(want.Phases))
	}
	for i := range got.Phases {
		if got.Phases[i] != want.Phases[i] {
			t.Errorf("phase %d: %+v vs %+v", i, got.Phases[i], want.Phases[i])
		}
	}
}

// TestMachineSingleUseGuards verifies the documented safety rails around
// Reset and the pool.
func TestMachineSingleUseGuards(t *testing.T) {
	cfg := DefaultConfig(2)
	prog := poolProgram(t)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err == nil {
		t.Error("second Run on a consumed machine must error")
	}
	gen := m.Generation()
	m.Reset()
	if m.Generation() != gen+1 {
		t.Errorf("Reset did not bump generation: %d -> %d", gen, m.Generation())
	}
	if _, err := m.Run(prog); err != nil {
		t.Errorf("Run after Reset: %v", err)
	}
	m.Release()
	if _, err := m.Run(prog); err == nil {
		t.Error("Run on a released machine must error")
	}
	m.Release() // double release is a checked no-op
}

// TestResetReusesTables asserts Reset keeps grown capacity (the property
// that makes pooling allocation-free) and clears all residency.
func TestResetReusesTables(t *testing.T) {
	cfg := DefaultConfig(4)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(4)
	for i := uint64(0); i < 8000; i++ {
		b.Load(int(i%4), 0x1000000+64*i)
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	slots := len(m.dir.slots)
	if m.dir.len() == 0 {
		t.Fatal("run tracked no lines")
	}
	m.Reset()
	if m.dir.len() != 0 {
		t.Errorf("directory still tracks %d lines after Reset", m.dir.len())
	}
	if len(m.dir.slots) != slots {
		t.Errorf("Reset shrank the directory: %d -> %d slots", slots, len(m.dir.slots))
	}
	for i := range m.l1 {
		if m.l1[i].countValid() != 0 {
			t.Errorf("L1[%d] still holds %d lines after Reset", i, m.l1[i].countValid())
		}
	}
	if m.l2.countValid() != 0 {
		t.Errorf("L2 still holds %d lines after Reset", m.l2.countValid())
	}
}

// TestMachinePoolStable: one configuration maps to one free list, and
// distinct configurations never share one.
func TestMachinePoolStable(t *testing.T) {
	a := machinePool(DefaultConfig(3))
	if b := machinePool(DefaultConfig(3)); a != b {
		t.Error("same config returned different pools")
	}
	if c := machinePool(DefaultConfig(5)); a == c {
		t.Error("different configs share a pool")
	}
}

// TestMachinePoolConcurrentFirstUse: racing first lookups of one config
// all get the pool the map ends up holding.
func TestMachinePoolConcurrentFirstUse(t *testing.T) {
	cfgs := []Config{DefaultConfig(6), DefaultConfig(7), DefaultConfig(9), DefaultConfig(10)}
	var wg sync.WaitGroup
	pools := make([]*sync.Pool, 64)
	for i := range pools {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pools[i] = machinePool(cfgs[i%len(cfgs)])
		}(i)
	}
	wg.Wait()
	for i := range pools {
		if pools[i] != machinePool(cfgs[i%len(cfgs)]) {
			t.Fatalf("pool %d not stable under concurrent first use", i)
		}
	}
}

// TestMachinePoolSteadyStateZeroAllocs: once a config's pool exists, the
// lookup every Acquire and Release makes allocates nothing. Named to match
// ci.sh's no-race 'SteadyStateZeroAllocs' pass.
func TestMachinePoolSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	cfg := DefaultConfig(11)
	machinePool(cfg)
	if allocs := testing.AllocsPerRun(100, func() { machinePool(cfg) }); allocs != 0 {
		t.Errorf("steady-state machinePool lookup allocates %.1f times, want 0", allocs)
	}
}
