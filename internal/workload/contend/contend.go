// Package contend implements a transactional counter/auction-style
// contended workload in the ddtxn/Doppel mold: every transaction
// increments one counter drawn from a zipf-skewed key space, so at high
// skew a handful of hot keys — and therefore a handful of hot cache
// lines — absorb most of the traffic.
//
// Two execution modes bracket the design space the Doppel paper explores:
//
//   - Joined: every worker updates the shared counter table in place.
//     On the simulated MESI hierarchy each write to a hot line must
//     invalidate every other core's copy, so the parallel phase serializes
//     on coherence traffic the analytic model cannot see.
//   - Split: each worker accumulates into a per-core privatized table
//     (a PartialBase region per core) that the master reconciles into the
//     shared table at phase boundaries — a classic growing merging phase,
//     exactly the shape the paper's extended model was built for.
//
// contend has no native runner: its experiments measure the simulated
// MESI hierarchy. The transaction trace is deterministic: one seeded
// rand.Zipf sequence per (spec seed, config), identical across core
// counts, modes and processes.
package contend

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mergescale/internal/parallel"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
)

// Mode selects the execution strategy.
type Mode int

const (
	// Joined updates the shared counter table in place from every worker.
	Joined Mode = iota
	// Split privatizes per-core state and reconciles it at phase
	// boundaries (Doppel's split-phase execution).
	Split
)

// String names the mode for report output.
func (m Mode) String() string {
	if m == Split {
		return "split"
	}
	return "joined"
}

// maxKeys caps the counter table so a per-core privatized copy fits in
// one PartialAlign-spaced region of the simulator's address layout.
const maxKeys = workload.PartialAlign / 8

// Config holds the workload parameters.
type Config struct {
	// Keys is the counter-table size (the zipf key space).
	Keys int
	// Alpha is the zipf skew (rand.Zipf s parameter; must be > 1).
	// Values near 1 approach uniform access; 2 concentrates most
	// transactions on a handful of hot keys.
	Alpha float64
	// OpsPerTx is the compute work modeled per transaction.
	OpsPerTx int
	// Rounds is the number of execution rounds (phase-boundary
	// reconciliations in split mode); the trace is divided evenly.
	Rounds int
	// Mode selects joined (shared hot keys) or split (privatized) updates.
	Mode Mode
}

// DefaultConfig returns the baseline parameters: a 256-counter table
// (32 cache lines — small enough that skewed traffic concentrates on a
// few hot lines) with moderate skew, hammered over four rounds. The
// table is kept small relative to the trace so the parallel phase, not
// the per-round reconciliation, dominates the work.
func DefaultConfig() Config {
	return Config{Keys: 256, Alpha: 1.5, OpsPerTx: 8, Rounds: 4, Mode: Joined}
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.Keys < 1 || c.Keys > maxKeys {
		return fmt.Errorf("contend: Keys must be in [1, %d], got %d", maxKeys, c.Keys)
	}
	if !(c.Alpha > 1) {
		return fmt.Errorf("contend: Alpha must be > 1 (rand.Zipf), got %g", c.Alpha)
	}
	if c.OpsPerTx < 1 {
		return fmt.Errorf("contend: OpsPerTx must be >= 1, got %d", c.OpsPerTx)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("contend: Rounds must be >= 1, got %d", c.Rounds)
	}
	if c.Mode != Joined && c.Mode != Split {
		return fmt.Errorf("contend: unknown mode %d", int(c.Mode))
	}
	return nil
}

// Contend is the workload adapter.
type Contend struct {
	Cfg Config
}

// New returns a contended workload with defaults (joined mode).
func New() *Contend { return &Contend{Cfg: DefaultConfig()} }

// Name implements workload.Workload. Joined and split variants share the
// name; Mode is part of Params, so cache keys never alias across modes.
func (w *Contend) Name() string { return "contend" }

// Params implements workload.Workload: Cfg is a plain scalar struct, so it
// renders deterministically into engine cache keys.
func (w *Contend) Params() any { return w.Cfg }

// DefaultSpec implements workload.Workload. N is the transaction count;
// contend never reads the points, so none are drawn — the trace derives
// from Seed alone — but the spec keeps contend behind the same dataset
// memoization and quick-mode shrinking as every other workload.
func (w *Contend) DefaultSpec() datagen.Spec {
	return datagen.Spec{Label: "contend-base", N: 65536, D: 1, C: 1, Spread: 1, Seed: 401}
}

// zipfKey is everything a trace depends on: Mode, OpsPerTx and Rounds
// only shape how a program replays it.
type zipfKey struct {
	seed  uint64
	n     int
	alpha float64
	keys  int
}

// zipfEntry builds one trace exactly once, however many programs ask.
type zipfEntry struct {
	once sync.Once
	keys []uint32
}

// zipfTraces memoizes program traces per zipfKey. Both modes at every
// core count replay the same trace, so the quick ext-contend and
// ext-contend-split sweeps (3 alphas × 2 modes × 4 core counts) generate
// 3 traces instead of 24. The key set is bounded: only registry
// experiments build contend programs, and no CLI or HTTP input reaches
// Alpha or Keys.
var zipfTraces sync.Map // zipfKey -> *zipfEntry

// tracesBuilt counts the traces zipfTrace has generated; see TracesBuilt.
var tracesBuilt atomic.Uint64

// TracesBuilt reports how many distinct zipf traces this process has
// generated for simulator programs — a hook for tests asserting that
// programs sharing a trace share its generation.
func TracesBuilt() uint64 { return tracesBuilt.Load() }

// zipfTrace returns the memoized transaction key sequence for (seed, n,
// c): the same seed, length, and config always yield the same trace, so
// programs at every core count and in both modes replay identical
// accesses. The slice is shared by every caller and must be treated as
// read-only.
func zipfTrace(seed uint64, n int, c Config) []uint32 {
	k := zipfKey{seed: seed, n: n, alpha: c.Alpha, keys: c.Keys}
	v, ok := zipfTraces.Load(k)
	if !ok {
		v, _ = zipfTraces.LoadOrStore(k, new(zipfEntry))
	}
	e := v.(*zipfEntry)
	e.once.Do(func() {
		rng := rand.New(rand.NewSource(int64(seed)))
		z := rand.NewZipf(rng, c.Alpha, 1, uint64(c.Keys-1))
		e.keys = make([]uint32, n)
		for i := range e.keys {
			e.keys[i] = uint32(z.Uint64())
		}
		tracesBuilt.Add(1)
	})
	return e.keys
}

// roundBounds returns round r's half-open slice of an n-transaction trace
// divided evenly over the config's rounds.
func roundBounds(n, rounds, r int) (lo, hi int) {
	return r * n / rounds, (r + 1) * n / rounds
}

// BuildProgram implements workload.Workload. Every transaction compiles to
// a load–compute–store triple on its key's cache line: in joined mode the
// line lives in the shared counter table (AddrCenters), so concurrent
// writers ping-pong ownership of the hot lines; in split mode it lives in
// the core's private PartialBase region, and each round ends with the
// master streaming all per-core tables into the shared one (the merging
// phase, threads × keys). A constant per-round serial section publishes
// the table.
func (w *Contend) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	if scale < 1 {
		scale = 1
	}
	c := w.Cfg
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := ds.N() / scale
	if n < cfg.Cores {
		return nil, fmt.Errorf("contend: scaled N=%d too small for %d cores", n, cfg.Cores)
	}
	keys := zipfTrace(ds.Spec.Seed, n, c)
	const kb = 8 // bytes per counter
	tableBytes := uint64(c.Keys) * kb

	// Each round's static partition of its transactions over the cores.
	ranges := make([][]parallel.Range, c.Rounds)
	for r := range ranges {
		lo, hi := roundBounds(n, c.Rounds, r)
		ranges[r] = parallel.Split(hi-lo, cfg.Cores)
	}

	b := sim.NewBuilder(cfg.Cores)
	reserveStreams(b, c, cfg, tableBytes, ranges)
	b.Phase("init")
	b.StoreRange(0, workload.AddrCenters, tableBytes, cfg.LineSz)
	b.Compute(0, uint64(c.Keys))
	b.Barrier()

	for r := 0; r < c.Rounds; r++ {
		lo, _ := roundBounds(n, c.Rounds, r)
		b.Phase("parallel")
		for id := 0; id < cfg.Cores; id++ {
			base := uint64(workload.AddrCenters)
			if c.Mode == Split {
				base = workload.PartialBase(id)
			}
			rg := ranges[r][id]
			for i := lo + rg.Lo; i < lo+rg.Hi; i++ {
				addr := base + uint64(keys[i])*kb
				b.Load(id, addr)
				b.Compute(id, uint64(c.OpsPerTx))
				b.Store(id, addr)
			}
		}
		b.Barrier()

		if c.Mode == Split {
			b.Phase("reduction")
			for id := 0; id < cfg.Cores; id++ {
				b.LoadRange(0, workload.PartialBase(id), tableBytes, cfg.LineSz)
				b.Compute(0, uint64(c.Keys))
			}
			b.StoreRange(0, workload.AddrCenters, tableBytes, cfg.LineSz)
			b.Barrier()
		}

		b.Phase("serial")
		b.LoadRange(0, workload.AddrCenters, tableBytes, cfg.LineSz)
		b.Compute(0, uint64(c.Keys))
		b.Barrier()
	}

	return b.Build()
}

// reserveStreams reserves every stream of BuildProgram's program at its
// exact final length, so each is allocated once. It counts the ops
// BuildProgram appends below, phase by phase; Keys and OpsPerTx are at
// least 1, so every Compute appends one op.
func reserveStreams(b *sim.Builder, c Config, cfg sim.Config, tableBytes uint64, ranges [][]parallel.Range) {
	shared := sim.RangeOps(workload.AddrCenters, tableBytes, cfg.LineSz)
	barriers := 1 + 2*c.Rounds
	// Core 0's ops outside the parallel phases: the init phase's marker,
	// table store and compute; each round's parallel marker and serial
	// marker, table load and compute.
	master := 2 + shared + c.Rounds*(3+shared)
	if c.Mode == Split {
		// Each round's reduction: its marker, every core's table load and
		// compute, and the shared-table store.
		barriers += c.Rounds
		merge := 1 + shared
		for id := 0; id < cfg.Cores; id++ {
			merge += sim.RangeOps(workload.PartialBase(id), tableBytes, cfg.LineSz) + 1
		}
		master += c.Rounds * merge
	}
	for id := 0; id < cfg.Cores; id++ {
		ops := barriers
		if id == 0 {
			ops += master
		}
		for _, rs := range ranges {
			ops += 3 * (rs[id].Hi - rs[id].Lo) // load, compute, store
		}
		b.Reserve(id, ops)
	}
}

var _ workload.Workload = (*Contend)(nil)
