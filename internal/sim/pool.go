package sim

import "sync"

// Machine pooling. A Machine's tables (cache tag stores, the directory
// slot array, scheduler scratch) dominate its construction cost, and every
// engine job historically built a fresh machine per run. The pool keeps
// consumed machines per configuration and hands them back Reset, so a
// steady-state simulation sweep performs no machine-construction
// allocations at all.
//
// Single-use safety is preserved: Run still refuses a machine that has
// already run (until Reset), refuses a machine that sits in the pool
// (released guard), and Reset bumps the generation counter so a caller
// holding a stale handle across Release/Acquire can detect the reuse.

// machinePools maps Config (comparable: all scalar fields) to the
// *sync.Pool of consumed machines for that exact configuration. It is a
// read-locked map rather than a sync.Map, because a sync.Map would box the
// Config key into an interface on every Load: an allocation per
// Acquire/Release on the path pooling exists to keep allocation-free.
var machinePools = struct {
	sync.RWMutex
	m map[Config]*sync.Pool
}{m: make(map[Config]*sync.Pool)}

// machinePool returns the pool for cfg, creating it on first use. The fast
// path is a read-locked map lookup with no allocations.
func machinePool(cfg Config) *sync.Pool {
	machinePools.RLock()
	p := machinePools.m[cfg]
	machinePools.RUnlock()
	if p != nil {
		return p
	}
	machinePools.Lock()
	defer machinePools.Unlock()
	if p = machinePools.m[cfg]; p != nil {
		return p
	}
	p = new(sync.Pool)
	machinePools.m[cfg] = p
	return p
}

// AcquireMachine returns a ready-to-Run machine for cfg, reusing a pooled
// one when available and constructing a fresh one otherwise. Pair with
// Release; an unreleased machine is simply garbage collected.
func AcquireMachine(cfg Config) (*Machine, error) {
	if m, _ := machinePool(cfg).Get().(*Machine); m != nil {
		m.Reset()
		m.released = false
		return m, nil
	}
	return NewMachine(cfg)
}

// Release returns a machine to its configuration's pool. The machine must
// not be used afterwards (Run on a released machine errors); releasing
// twice is a checked no-op so defer-style cleanup stays safe.
func (m *Machine) Release() {
	if m == nil || m.released {
		return
	}
	m.released = true
	machinePool(m.cfg).Put(m)
}
