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
//     (parallel.Privatized natively; a PartialBase region per core on the
//     simulator) that the master reconciles into the shared table at
//     phase boundaries — a classic growing merging phase, exactly the
//     shape the paper's extended model was built for.
//
// The transaction trace is deterministic: one seeded rand.Zipf sequence
// per (spec seed, config), shared by the native runner and the program
// builder, identical across thread counts, core counts, and processes.
package contend

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"mergescale/internal/parallel"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
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

// Result carries the native run's output.
type Result struct {
	Counts []uint64 // final per-key counter values
	Total  uint64   // transactions applied (= trace length)
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

// genZipf generates the deterministic transaction key sequence: the same
// seed, length, and config always yield the same trace, so native runs and
// simulator programs at every thread/core count replay identical accesses.
func genZipf(seed uint64, n int, c Config) []uint32 {
	rng := rand.New(rand.NewSource(int64(seed)))
	z := rand.NewZipf(rng, c.Alpha, 1, uint64(c.Keys-1))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Uint64())
	}
	return out
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
// Alpha or Keys. Native runs call genZipf directly, so their timed init
// phase keeps measuring the generation it reports as work.
var zipfTraces sync.Map // zipfKey -> *zipfEntry

// tracesBuilt counts genZipf calls made through zipfTrace; see TracesBuilt.
var tracesBuilt atomic.Uint64

// TracesBuilt reports how many distinct zipf traces this process has
// generated for simulator programs — a hook for tests asserting that
// programs sharing a trace share its generation.
func TracesBuilt() uint64 { return tracesBuilt.Load() }

// zipfTrace returns the memoized trace for (seed, n, c). The slice is
// shared by every caller and must be treated as read-only.
func zipfTrace(seed uint64, n int, c Config) []uint32 {
	k := zipfKey{seed: seed, n: n, alpha: c.Alpha, keys: c.Keys}
	v, ok := zipfTraces.Load(k)
	if !ok {
		v, _ = zipfTraces.LoadOrStore(k, new(zipfEntry))
	}
	e := v.(*zipfEntry)
	e.once.Do(func() {
		e.keys = genZipf(seed, n, c)
		tracesBuilt.Add(1)
	})
	return e.keys
}

// roundBounds returns round r's half-open slice of an n-transaction trace
// divided evenly over the config's rounds.
func roundBounds(n, rounds, r int) (lo, hi int) {
	return r * n / rounds, (r + 1) * n / rounds
}

// Run executes the workload natively with instrumented phases. The final
// counter table is identical in both modes and at every thread count
// (addition commutes); only the sharing pattern differs.
func Run(ds *datagen.Dataset, cfg Config, threads int, timing bool) (*Result, *trace.Profile, error) {
	if threads < 1 {
		return nil, nil, errors.New("contend: threads must be >= 1")
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	n := ds.N()
	prof := trace.NewProfile("contend", threads)
	pool, err := parallel.NewPool(threads)
	if err != nil {
		return nil, nil, err
	}
	defer pool.Close()

	// ---- init: generate the transaction trace.
	var tInit *trace.Timer
	if timing {
		tInit = prof.StartTimer(trace.SecInit)
	}
	keys := genZipf(ds.Spec.Seed, n, cfg)
	if timing {
		tInit.Stop()
	}
	prof.AddWork(trace.SecInit, float64(n))

	counts := make([]uint64, cfg.Keys)
	var pv *parallel.Privatized
	var merged []float64
	if cfg.Mode == Split {
		pv = parallel.NewPrivatized(threads, cfg.Keys)
		merged = make([]float64, cfg.Keys)
	}
	// txWork burns OpsPerTx deterministic mix steps per transaction so
	// wall-clock timing reflects the modeled compute; the hashes land in
	// sink so the loop cannot be eliminated.
	sink := make([]uint64, threads)
	var total uint64

	for r := 0; r < cfg.Rounds; r++ {
		lo, hi := roundBounds(n, cfg.Rounds, r)
		cnt := hi - lo

		// ---- parallel: apply this round's transactions.
		var tPar *trace.Timer
		if timing {
			tPar = prof.StartTimer(trace.SecParallel)
		}
		if cfg.Mode == Joined {
			pool.For(cnt, func(id, plo, phi int) {
				h := uint64(id)
				for i := plo; i < phi; i++ {
					k := keys[lo+i]
					for j := 0; j < cfg.OpsPerTx; j++ {
						h = h*0x100000001b3 + uint64(k)
					}
					atomic.AddUint64(&counts[k], 1)
				}
				sink[id] += h
			})
		} else {
			pool.For(cnt, func(id, plo, phi int) {
				buf := pv.Buf(id)
				h := uint64(id)
				for i := plo; i < phi; i++ {
					k := keys[lo+i]
					for j := 0; j < cfg.OpsPerTx; j++ {
						h = h*0x100000001b3 + uint64(k)
					}
					buf[k]++
				}
				sink[id] += h
			})
		}
		if timing {
			tPar.Stop()
		}
		prof.AddWork(trace.SecParallel, float64(cnt*(cfg.OpsPerTx+1)))

		// ---- reduction (split only): reconcile per-core tables into the
		// shared one — threads × keys work, the growing merging phase.
		if cfg.Mode == Split {
			var tRed *trace.Timer
			if timing {
				tRed = prof.StartTimer(trace.SecReduction)
			}
			mergeOps := pv.MergeInto(merged)
			pv.Reset()
			if timing {
				tRed.Stop()
			}
			prof.AddWork(trace.SecReduction, float64(mergeOps))
		}

		// ---- serial: publish the round's table snapshot (constant work).
		var tSer *trace.Timer
		if timing {
			tSer = prof.StartTimer(trace.SecSerial)
		}
		if cfg.Mode == Split {
			for k := range merged {
				counts[k] = uint64(merged[k])
			}
		}
		roundTotal := uint64(0)
		for _, v := range counts {
			roundTotal += v
		}
		total = roundTotal
		if timing {
			tSer.Stop()
		}
		prof.AddWork(trace.SecSerial, float64(cfg.Keys))
	}

	return &Result{Counts: counts, Total: total}, prof, nil
}

// RunNative implements workload.Workload.
func (w *Contend) RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error) {
	_, prof, err := Run(ds, w.Cfg, threads, timing)
	return prof, err
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
