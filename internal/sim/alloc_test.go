package sim

import "testing"

// TestAccessSteadyStateZeroAllocs is the allocation-budget gate of the
// zero-allocation hot path: once a machine's working set has been touched
// (every line in the directory, caches warm), a simulated memory access —
// hits, misses, upgrades, interventions — must not allocate at all. The
// budget is exactly 0 allocs/access; any regression here multiplies by
// hundreds of thousands of accesses per experiment run.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	cfg := DefaultConfig(4)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ran = true // access directly; keep the single-use guard honest

	var ctr Counters
	// Working set: a shared region (invalidation/upgrade traffic), private
	// regions per core, and a streaming region larger than L1 (capacity
	// misses, L2 hits, evictions) — every steady-state protocol path.
	const lines = 4096
	warm := func() {
		for i := uint64(0); i < lines; i++ {
			core := int(i % 4)
			m.access(core, 0x1000000+64*i, false, &ctr)
			m.access(core, 0x100000+64*(i%64), i%8 == 0, &ctr)
			m.access((core+1)%4, 0x100000+64*(i%64), i%16 == 0, &ctr)
		}
	}
	warm() // first pass inserts every line into the directory
	allocs := testing.AllocsPerRun(10, warm)
	if allocs != 0 {
		t.Errorf("steady-state access loop allocates %.1f times per %d accesses, budget is 0", allocs, 3*lines)
	}
}

// TestRunSteadyStateZeroAllocs is the whole-run allocation gate for the
// serial path: once the machine's scratch (result buffers, scheduler
// heap, phase storage) is warm, a full Run performs ZERO allocations —
// the former 2 allocs/run (Result.CoreTime and Phases) are machine-owned
// now. Named to match ci.sh's no-race 'SteadyStateZeroAllocs' pass.
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	prog := poolProgram(t)
	m, err := NewMachine(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		m.Reset()
		if _, err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch (phase buffer, grown directory)
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("steady-state serial Run allocates %.1f times, budget is 0", allocs)
	}
}

// TestDirectorySteadyStateZeroAllocs pins the directory specifically: gets
// of existing lines never allocate.
func TestDirectorySteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	d := newDirectory()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		d.get(i << 6)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := uint64(0); i < n; i++ {
			d.get(i << 6).addSharer(int(i % 64))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state directory gets allocate %.1f times per %d ops, budget is 0", allocs, n)
	}
}

// TestResetSteadyStateZeroAllocs pins Machine.Reset itself: clearing the
// sets a run wrote, the dirty-set bitmaps and the directory reuses every
// table, so recycling a pooled machine allocates nothing. Named to match
// ci.sh's no-race 'SteadyStateZeroAllocs' pass.
func TestResetSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	prog := poolProgram(t)
	m, err := NewMachine(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, m.Reset); allocs != 0 {
		t.Errorf("Machine.Reset allocates %.1f times, budget is 0", allocs)
	}
}
