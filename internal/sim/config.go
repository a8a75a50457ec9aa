// Package sim is a deterministic, trace-driven, cycle-approximate chip
// multiprocessor simulator — the substitute for the SESC simulator used in
// the paper's evaluation (Section IV). It models:
//
//   - simple superscalar cores (fetch/issue/commit width, instruction
//     window) executing per-thread operation streams;
//   - private L1 data caches and a shared L2, kept coherent with a MESI
//     protocol and a full-map directory;
//   - a 2D-mesh interconnect contributing per-hop latency to remote
//     transfers;
//   - barriers, and phase markers used for the paper's per-section cycle
//     accounting (initialization / parallel / reduction / serial).
//
// The simulator is not cycle-accurate with respect to any real machine; it
// reproduces the *relative growth* of merging-phase time with core count,
// which is the quantity the paper extracts from SESC. Simulation is fully
// deterministic: ties between cores are broken by core id.
//
// Workloads compile their threads into a Program through a Builder. The
// program's op streams and the caches' tag stores are pointer-free: an Op
// is one packed word (kind plus a MaxOpArg-bounded argument, phase names
// interned in Program.Phases) and a cache line is two (tag and MESI state
// in one, the LRU stamp in the other). Both live in noscan memory, so the
// garbage collector never scans them and building a stream runs no write
// barriers.
package sim

import (
	"errors"
	"fmt"
)

// Config describes the simulated machine. The defaults follow Table I of
// the paper.
type Config struct {
	Cores int // number of cores, >= 1

	// Core pipeline (Table I: fetch/issue/commit 4-wide, 32-entry
	// instruction window).
	IssueWidth int // ALU operations retired per cycle

	// L1 data cache (Table I: 64K 4-way private). Sizes in bytes.
	L1Size  int
	L1Ways  int
	L1Lat   uint64 // hit latency, cycles
	L2Size  int    // shared L2 (Table I: 4M 16-way)
	L2Ways  int
	L2Lat   uint64 // hit latency, cycles
	MemLat  uint64 // main-memory latency, cycles
	LineSz  int    // cache line size, bytes
	HopLat  uint64 // mesh per-hop latency, cycles
	BarLat  uint64 // barrier release latency, cycles
	InvLat  uint64 // per-sharer invalidation latency, cycles
	XferLat uint64 // cache-to-cache transfer base latency, cycles
}

// DefaultConfig returns the Table I baseline for the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:      cores,
		IssueWidth: 4,
		L1Size:     64 << 10,
		L1Ways:     4,
		L1Lat:      2,
		L2Size:     4 << 20,
		L2Ways:     16,
		L2Lat:      12,
		MemLat:     120,
		LineSz:     64,
		HopLat:     2,
		BarLat:     20,
		InvLat:     4,
		XferLat:    10,
	}
}

// Validate checks configuration invariants.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return errors.New("sim: need at least one core")
	}
	if c.Cores > maxSimCores {
		return fmt.Errorf("sim: directory sharer set supports at most %d cores, got %d", maxSimCores, c.Cores)
	}
	if c.IssueWidth < 1 {
		return errors.New("sim: issue width must be >= 1")
	}
	if c.LineSz <= 0 || c.LineSz&(c.LineSz-1) != 0 {
		return fmt.Errorf("sim: line size %d must be a positive power of two", c.LineSz)
	}
	for _, s := range []struct {
		name       string
		size, ways int
	}{{"L1", c.L1Size, c.L1Ways}, {"L2", c.L2Size, c.L2Ways}} {
		if s.size <= 0 || s.ways <= 0 {
			return fmt.Errorf("sim: %s size/ways must be positive", s.name)
		}
		lines := s.size / c.LineSz
		if lines == 0 || lines%s.ways != 0 {
			return fmt.Errorf("sim: %s geometry %dB/%d-way incompatible with %dB lines", s.name, s.size, s.ways, c.LineSz)
		}
		sets := lines / s.ways
		if sets&(sets-1) != 0 {
			return fmt.Errorf("sim: %s set count %d must be a power of two", s.name, sets)
		}
	}
	return nil
}

func (c Config) lineShift() uint {
	s := uint(0)
	for v := c.LineSz; v > 1; v >>= 1 {
		s++
	}
	return s
}
