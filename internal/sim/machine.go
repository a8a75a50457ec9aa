package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"mergescale/internal/topology"
)

// Counters aggregates event counts over a simulation run.
type Counters struct {
	L1Hits        uint64
	L1Misses      uint64
	L2Hits        uint64
	L2Misses      uint64
	C2CTransfers  uint64 // cache-to-cache interventions (remote M copy)
	Invalidations uint64 // L1 lines invalidated by remote writes
	WriteBacks    uint64 // dirty L1 evictions written back to L2
	L2Evictions   uint64 // valid L2 victims (inclusive back-invalidation)
	Barriers      uint64
	Loads         uint64
	Stores        uint64
	ComputeOps    uint64
	// SharerPeak is the largest number of L1s simultaneously holding any
	// one line — read-sharing breadth on the hottest line.
	SharerPeak uint64
	// HotLineInvalidations is the invalidation count of the single
	// most-invalidated line: the contended-workload "invalidation storm"
	// concentrated on one hot line, as opposed to Invalidations spread
	// over the whole working set.
	HotLineInvalidations uint64
}

// PhaseTime records the wall-clock cycles spent in one dynamic phase
// instance (phases may repeat, e.g. "parallel" once per iteration).
type PhaseTime struct {
	Name   string
	Cycles uint64
}

// Result is the outcome of one simulation run.
//
// Phases and CoreTime alias machine-owned scratch recycled across runs: a
// Result stays valid until its Machine's next Reset (for pooled machines,
// until Release hands it back). Callers that outlive the machine — the
// cacheable workload.SimRun does — must copy the slices they keep.
type Result struct {
	Cycles   uint64      // total wall-clock cycles (max over cores)
	Phases   []PhaseTime // dynamic phase sequence
	Counters Counters
	CoreTime []uint64 // final per-core clocks
}

// PhaseCycles sums the wall-clock cycles of all dynamic instances of the
// named phase.
func (r Result) PhaseCycles(name string) uint64 {
	var sum uint64
	for _, p := range r.Phases {
		if p.Name == name {
			sum += p.Cycles
		}
	}
	return sum
}

// PhaseNames returns the distinct phase names in first-appearance order.
func (r Result) PhaseNames() []string {
	return DistinctPhaseNames(r.Phases)
}

// distinctSpillAt is the vocabulary size at which DistinctPhaseNames stops
// scanning the result slice per instance and builds a seen-set. The
// paper's phase vocabulary is four names; staying linear below the
// threshold keeps the common case allocation-free (beyond the result).
const distinctSpillAt = 16

// DistinctPhaseNames extracts first-appearance-ordered distinct names from
// a dynamic phase sequence. Small vocabularies (the common case) use a
// containment scan with no scratch allocation; once the vocabulary
// outgrows distinctSpillAt the scan spills to a seen-set, so the worst
// case is O(n) over dynamic phase instances rather than O(n·distinct).
// Shared with workload.SimRun, which carries the same []PhaseTime.
func DistinctPhaseNames(phases []PhaseTime) []string {
	var names []string
	var seen map[string]struct{}
outer:
	for _, p := range phases {
		if seen == nil {
			for _, n := range names {
				if n == p.Name {
					continue outer
				}
			}
			if len(names) == distinctSpillAt {
				seen = make(map[string]struct{}, 2*distinctSpillAt)
				for _, n := range names {
					seen[n] = struct{}{}
				}
			}
		}
		if seen != nil {
			if _, ok := seen[p.Name]; ok {
				continue
			}
			seen[p.Name] = struct{}{}
		}
		names = append(names, p.Name)
	}
	return names
}

// Machine simulates one CMP configuration. A Machine is single-use: create
// with NewMachine (or draw one from the pool with AcquireMachine), call
// Run once. Reset returns a consumed machine to its initial state, reusing
// every internal table — that is what makes pooling allocation-free.
type Machine struct {
	cfg       Config
	lineShift uint             // log2(cfg.LineSz): byte address to line address
	coords    []topology.Coord // each core's mesh router, for transfer distances
	l1        []cache          // one private L1 per core, stored by value
	l2        cache
	dir       directory
	l2Hops    uint64      // average requester-to-L2-bank distance, cycles already folded in access()
	cores     []coreState // per-run scheduler scratch, reused across Reset
	sched     []uint64    // scheduler min-heap scratch of packed (time, id) keys

	coreTimeBuf []uint64    // Result.CoreTime backing, recycled across runs
	phasesBuf   []PhaseTime // Result.Phases backing, recycled across runs

	ran      bool
	released bool   // true while the machine sits in (or was returned to) the pool
	gen      uint64 // bumped by every Reset; the pool's used-guard
}

// NewMachine builds a machine for the configuration.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := topology.New(topology.Mesh2D, cfg.Cores)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, lineShift: cfg.lineShift()}
	m.coords = make([]topology.Coord, cfg.Cores)
	for id := range m.coords {
		if m.coords[id], err = net.MeshCoord(id); err != nil {
			return nil, err
		}
	}
	m.dir.init()
	m.l1 = make([]cache, cfg.Cores)
	for i := range m.l1 {
		m.l1[i].init(cfg.L1Size, cfg.L1Ways, cfg.LineSz)
	}
	m.l2.init(cfg.L2Size, cfg.L2Ways, cfg.LineSz)
	m.l2Hops = uint64(math.Ceil(net.AvgHops()))
	m.cores = make([]coreState, cfg.Cores)
	m.sched = make([]uint64, 0, cfg.Cores)
	m.coreTimeBuf = make([]uint64, cfg.Cores)
	return m, nil
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Generation reports how many times this machine has been reset — the
// explicit used-guard behind the machine pool: a caller holding a machine
// across a Release/Acquire cycle can detect the reuse.
func (m *Machine) Generation() uint64 { return m.gen }

// Reset returns a consumed machine to its freshly-constructed state while
// keeping every internal table (cache tag stores, the directory slot
// array, scheduler and result scratch) allocated, so a pooled machine's
// next Run performs no setup allocations. The generation counter advances
// so stale handles are detectable. Reset recycles the scratch backing the
// previous Run's Result.Phases/CoreTime — see the Result lifetime note.
func (m *Machine) Reset() {
	for i := range m.l1 {
		m.l1[i].reset()
	}
	m.l2.reset()
	m.dir.reset()
	m.ran = false
	m.gen++
}

type coreState struct {
	time uint64
	pc   int
}

// errClockOverflow is Run's error for a core clock that would pass
// maxCoreTime, where it no longer fits a scheduler key.
var errClockOverflow = fmt.Errorf("sim: a core clock would reach %d cycles, the simulator's limit", uint64(maxCoreTime)+1)

// runCount tallies Machine.Run invocations process-wide; see Runs.
var runCount atomic.Uint64

// Runs reports how many Machine.Run calls started in this process — a
// hook for tests and cache statistics asserting that warm-cache runs
// perform no simulation at all.
func Runs() uint64 { return runCount.Load() }

// The scheduler heap holds one packed key per runnable core: its clock
// above the low schedIDBits bits and its id in them. Ids are below
// maxSimCores <= 1<<schedIDBits, so one unsigned compare of two keys orders
// by lowest time first, ties broken by lowest core id — exactly the
// selection rule of the linear scan the heap replaced (strict < while
// iterating ids ascending). A clock must stay below 1<<(64-schedIDBits)
// to fit; Run returns an error rather than let one reach maxCoreTime+1.
const (
	schedIDBits = 8
	schedIDMask = 1<<schedIDBits - 1
	maxCoreTime = 1<<(64-schedIDBits) - 1
)

// Every core id fits in schedIDBits: this array's length goes negative,
// and the build fails, if maxSimCores outgrows them.
var _ [1<<schedIDBits - maxSimCores]struct{}

// schedKey packs a core's clock and id into its heap key.
func schedKey(time uint64, id int) uint64 { return time<<schedIDBits | uint64(id) }

// schedFix restores the heap property after the root's key increased:
// sift the root down. The scheduler only ever changes the root (the core
// just executed), so this is the whole heap maintenance — O(log P) per op
// instead of the former O(P) scan. Keys are distinct (ids are), so the
// order is total.
func schedFix(h []uint64) {
	n := len(h)
	x := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if x < h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// schedPop removes the root (a core that finished or blocked at a
// barrier) and restores the heap.
func schedPop(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	if n > 0 {
		schedFix(h)
	}
	return h
}

// closePhase records the phase ending at now into res, drawing storage
// from the machine-owned scratch on the first phase of a run.
func (m *Machine) closePhase(res *Result, name string, start, now uint64) {
	if name == "" {
		return
	}
	if res.Phases == nil {
		if m.phasesBuf == nil {
			// One right-sized allocation, amortized over the machine's
			// lifetime; phase sequences are short (a few per iteration).
			m.phasesBuf = make([]PhaseTime, 0, 16)
		}
		res.Phases = m.phasesBuf[:0]
	}
	res.Phases = append(res.Phases, PhaseTime{Name: name, Cycles: now - start})
}

// Run executes the program to completion and returns per-phase timing.
// The scheduler is one goroutine draining a min-heap of packed (core
// time, core id) keys; Run returns an error if a core clock would pass
// maxCoreTime.
func (m *Machine) Run(prog *Program) (Result, error) {
	if m.ran {
		return Result{}, errors.New("sim: Machine is single-use; create a new one per run (or Reset/re-Acquire it)")
	}
	if m.released {
		return Result{}, errors.New("sim: Machine was released to the pool; acquire a fresh one")
	}
	m.ran = true
	runCount.Add(1)
	if err := prog.Validate(); err != nil {
		return Result{}, err
	}
	if prog.Cores() != m.cfg.Cores {
		return Result{}, fmt.Errorf("sim: program has %d streams, machine has %d cores", prog.Cores(), m.cfg.Cores)
	}

	cores := m.cores
	clear(cores)
	res := Result{CoreTime: m.coreTimeBuf}
	arrivals := 0
	phaseName := ""
	var phaseStart uint64

	// Seed the heap with every core that has ops. Times are all zero and
	// ids ascend, so the slice is already a valid heap.
	h := m.sched[:0]
	for id := range prog.Streams {
		if len(prog.Streams[id]) > 0 {
			h = append(h, schedKey(0, id))
		}
	}

	for len(h) > 0 {
		// The root is the lowest-time unblocked core with ops left
		// (tie: lowest id).
		sel := int(h[0] & schedIDMask)
		c := &cores[sel]
		op := prog.Streams[sel][c.pc]
		c.pc++

		var d uint64 // cycles the op takes
		switch op.Kind() {
		case OpCompute:
			n := op.Arg()
			res.Counters.ComputeOps += n
			w := uint64(m.cfg.IssueWidth)
			d = (n + w - 1) / w
		case OpLoad:
			res.Counters.Loads++
			d = m.access(sel, op.Arg(), false, &res.Counters)
		case OpStore:
			res.Counters.Stores++
			d = m.access(sel, op.Arg(), true, &res.Counters)
		case OpPhase:
			m.closePhase(&res, phaseName, phaseStart, c.time)
			phaseName = prog.Phases[op.Arg()]
			phaseStart = c.time
		case OpBarrier:
			arrivals++
			h = schedPop(h) // blocked: out of the heap until release
			if arrivals == m.cfg.Cores {
				var maxT uint64
				for id := range cores {
					if cores[id].time > maxT {
						maxT = cores[id].time
					}
				}
				if m.cfg.BarLat > maxCoreTime-maxT {
					return Result{}, errClockOverflow
				}
				release := maxT + m.cfg.BarLat
				for id := range cores {
					cores[id].time = release
				}
				arrivals = 0
				res.Counters.Barriers++
				// Refill with every unfinished core: times are all equal
				// and ids ascend, so this is again a valid heap.
				h = h[:0]
				for id := range prog.Streams {
					if cores[id].pc < len(prog.Streams[id]) {
						h = append(h, schedKey(release, id))
					}
				}
			}
			continue
		}
		if d > maxCoreTime-c.time {
			return Result{}, errClockOverflow
		}
		c.time += d
		if c.pc >= len(prog.Streams[sel]) {
			h = schedPop(h)
		} else {
			h[0] = schedKey(c.time, sel)
			schedFix(h)
		}
	}
	if arrivals > 0 {
		return Result{}, errors.New("sim: deadlock — all live cores blocked at a barrier")
	}

	var wall uint64
	for id := range cores {
		res.CoreTime[id] = cores[id].time
		if cores[id].time > wall {
			wall = cores[id].time
		}
	}
	m.closePhase(&res, phaseName, phaseStart, wall)
	if res.Phases != nil {
		m.phasesBuf = res.Phases // adopt any grown backing array for the next run
	}
	res.Cycles = wall
	res.Counters.HotLineInvalidations = m.dir.maxInv()
	return res, nil
}

// access performs one memory operation for core `id` and returns its
// latency in cycles, updating caches, directory and counters. In steady
// state (the line has been touched before) it performs zero heap
// allocations — the allocation-budget test locks that in — because the
// directory stores entries by value and every table below is preallocated.
func (m *Machine) access(id int, addr uint64, write bool, ctr *Counters) uint64 {
	line := addr >> m.lineShift
	l1 := &m.l1[id]
	// The only directory call that may insert (and thus grow the table):
	// every later dir.get below resolves an address still resident in some
	// cache, which is always already tracked, so e stays valid throughout.
	e := m.dir.get(line)
	lat := m.cfg.L1Lat

	if hit := l1.lookup(line); hit != nil {
		ctr.L1Hits++
		if !write {
			return lat // read hit in any valid state
		}
		switch hit.state() {
		case stateModified:
			return lat
		case stateExclusive:
			hit.setState(stateModified)
			e.owner = int16(id)
			return lat
		case stateShared:
			// Upgrade: invalidate all other sharers.
			lat += m.invalidateOthers(id, line, e, ctr)
			hit.setState(stateModified)
			e.owner = int16(id)
			e.sharers.only(id)
			return lat
		}
	}
	ctr.L1Misses++

	// Remote M copy? Intervene with a cache-to-cache transfer.
	if e.owner >= 0 && int(e.owner) != id {
		owner := int(e.owner)
		if st := m.l1[owner].lookup(line); st != nil && (st.state() == stateModified || st.state() == stateExclusive) {
			lat += m.cfg.XferLat + m.cfg.HopLat*m.hops(id, owner)
			ctr.C2CTransfers++
			if write {
				m.l1[owner].invalidate(line)
				e.dropSharer(owner)
				ctr.Invalidations++
				e.inv++
			} else {
				m.l1[owner].downgrade(line)
				e.addSharer(owner)
			}
			e.owner = -1
			m.installL2(line, ctr) // dirty data written back to L2
			m.installL1(id, line, write, e, ctr)
			if write {
				e.owner = int16(id)
				e.sharers.only(id)
			} else {
				e.addSharer(id)
			}
			noteSharerPeak(e, ctr)
			return lat
		}
		// Stale owner record (line was evicted silently): fall through.
		e.owner = -1
	}

	if write {
		lat += m.invalidateOthers(id, line, e, ctr)
	}

	// L2 (shared, at average mesh distance).
	lat += m.cfg.L2Lat + m.cfg.HopLat*m.l2Hops
	if m.l2.lookup(line) != nil {
		ctr.L2Hits++
	} else {
		ctr.L2Misses++
		lat += m.cfg.MemLat
		m.installL2(line, ctr)
	}

	m.installL1(id, line, write, e, ctr)
	if write {
		e.owner = int16(id)
		e.sharers.only(id)
	} else {
		if e.sharerCount() == 0 {
			e.owner = int16(id) // exclusive
		}
		e.addSharer(id)
	}
	noteSharerPeak(e, ctr)
	return lat
}

// hops is the dimension-ordered routing distance between cores a and b on
// the machine's 2D mesh: topology's HopDistance over the router
// coordinates NewMachine stored.
func (m *Machine) hops(a, b int) uint64 {
	ca, cb := m.coords[a], m.coords[b]
	return uint64(absDiff(ca.X, cb.X) + absDiff(ca.Y, cb.Y))
}

func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}

// noteSharerPeak records the line's current sharer breadth into the
// SharerPeak counter. Called on the paths that grow a sharer set; read hits
// leave the set unchanged, so skipping them loses nothing.
func noteSharerPeak(e *dirEntry, ctr *Counters) {
	if n := uint64(e.sharerCount()); n > ctr.SharerPeak {
		ctr.SharerPeak = n
	}
}

// invalidateOthers invalidates every other L1 copy of line, returning the
// added latency. It walks the set bits of the sharer vector word by word —
// O(sharers), not O(Cores) — in ascending core order, which keeps the
// latency sum and inv increments deterministic.
func (m *Machine) invalidateOthers(id int, line uint64, e *dirEntry, ctr *Counters) uint64 {
	var lat uint64
	for wi := range e.sharers {
		w := e.sharers[wi]
		base := wi << 6
		for w != 0 {
			core := base + bits.TrailingZeros64(w)
			w &= w - 1
			if core == id {
				continue
			}
			if st := m.l1[core].invalidate(line); st != stateInvalid {
				lat += m.cfg.InvLat
				ctr.Invalidations++
				e.inv++
				if st == stateModified {
					m.installL2(line, ctr)
					ctr.WriteBacks++
				}
			}
			e.dropSharer(core)
		}
	}
	if e.owner >= 0 && int(e.owner) != id {
		e.owner = -1
	}
	return lat
}

// installL1 inserts line into core id's L1 with the proper state, handling
// the eviction side effects (directory update, dirty writeback). The
// evicted line was resident in L1, so its directory entry already exists —
// the dir.get below never inserts (see directory's stability contract).
func (m *Machine) installL1(id int, line uint64, write bool, e *dirEntry, ctr *Counters) {
	st := stateShared
	if write {
		st = stateModified
	} else if e.sharerCount() == 0 {
		st = stateExclusive
	}
	evAddr, evState := m.l1[id].insert(line, st)
	if evState == stateInvalid {
		return
	}
	ev := m.dir.get(evAddr)
	ev.dropSharer(id)
	if ev.owner == int16(id) {
		ev.owner = -1
	}
	if evState == stateModified {
		ctr.WriteBacks++
		m.installL2(evAddr, ctr)
	}
}

// installL2 ensures line is present in the (inclusive) L2, back-invalidating
// L1 copies of any valid victim. The victim was resident in L2, so its
// directory entry already exists — the dir.get below never inserts.
func (m *Machine) installL2(line uint64, ctr *Counters) {
	if m.l2.lookup(line) != nil {
		return
	}
	evAddr, evState := m.l2.insert(line, stateShared)
	if evState == stateInvalid {
		return
	}
	ctr.L2Evictions++
	ev := m.dir.get(evAddr)
	for wi := range ev.sharers {
		w := ev.sharers[wi]
		base := wi << 6
		for w != 0 {
			core := base + bits.TrailingZeros64(w)
			w &= w - 1
			m.l1[core].invalidate(evAddr)
			ctr.Invalidations++
			ev.inv++
		}
	}
	ev.sharers = sharerSet{}
	ev.owner = -1
}
