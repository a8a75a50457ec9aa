// Package hop implements the MineBench HOP benchmark: density-based
// grouping of particles (Eisenstein & Hut's HOP algorithm). Each particle
// estimates a local density from its spatial neighbors, "hops" to its
// densest neighbor until it reaches a local density maximum, and particles
// that reach the same maximum form a group.
//
// The implementation uses a uniform grid (the substitute for hop's KD
// tree): a parallel binning pass produces per-thread partial cell counts
// that are merged serially — hop's dominant merging phase, whose work is
// threads × cells and whose memory footprint makes it the paper's
// superlinear-growth example (Table II reports fored = 155%). A serial
// placement pass, parallel density and hop passes, a serial cross-chunk
// group merge, and a final relabel complete the pipeline.
package hop

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"mergescale/internal/parallel"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
)

// Config holds algorithm parameters.
type Config struct {
	// CellsPerDim fixes the grid resolution; 0 picks ~4 points per cell.
	CellsPerDim int
	// MaxNeighbors caps the density/hop candidate scan per point — HOP's
	// Ndens parameter (the density estimate uses the nearest neighbors,
	// not every particle in range). 0 uses the default of 64.
	MaxNeighbors int
}

// DefaultConfig returns the defaults (Ndens = 64, as in the original HOP).
func DefaultConfig() Config { return Config{MaxNeighbors: 64} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CellsPerDim < 0 {
		return fmt.Errorf("hop: CellsPerDim must be >= 0, got %d", c.CellsPerDim)
	}
	return nil
}

// Result carries the grouping output.
type Result struct {
	Group  []int // group id per point (root point index)
	Groups int   // distinct group count
}

// Hop is the workload adapter.
type Hop struct {
	Cfg Config
}

// New returns a hop workload with defaults.
func New() *Hop { return &Hop{Cfg: DefaultConfig()} }

// Name implements workload.Workload.
func (w *Hop) Name() string { return "hop" }

// Params implements workload.Workload: Cfg is a plain scalar struct, so it
// renders deterministically into engine cache keys.
func (w *Hop) Params() any { return w.Cfg }

// DefaultSpec implements workload.Workload.
func (w *Hop) DefaultSpec() datagen.Spec { return datagen.HopDefault }

// grid is the uniform spatial index replacing hop's KD-tree.
type grid struct {
	g     int       // cells per dimension
	d     int       // dimensions (points are embedded in min/scale space)
	min   []float64 // per-dimension minimum
	scale []float64 // per-dimension cell width
	cells int       // g^d
	start []int32   // cells+1 prefix offsets
	order []int32   // point indices sorted by cell
}

func (gr *grid) cellOf(pt []float64) int {
	c := 0
	for j := 0; j < gr.d; j++ {
		v := int((pt[j] - gr.min[j]) / gr.scale[j])
		if v < 0 {
			v = 0
		}
		if v >= gr.g {
			v = gr.g - 1
		}
		c = c*gr.g + v
	}
	return c
}

// cellCoord decomposes a cell index into per-dimension coordinates.
func (gr *grid) cellCoord(cell int, out []int) {
	for j := gr.d - 1; j >= 0; j-- {
		out[j] = cell % gr.g
		cell /= gr.g
	}
}

// gridDim returns the cells per dimension and the cell count of the grid
// over n points in d dimensions: cellsPerDim when set, otherwise about 4
// points per cell and at least 2 cells per dimension.
func gridDim(n, d, cellsPerDim int) (g, cells int) {
	g = cellsPerDim
	if g == 0 {
		g = max(int(math.Ceil(math.Pow(float64(n)/4, 1/float64(d)))), 2)
	}
	cells = 1
	for j := 0; j < d; j++ {
		cells *= g
	}
	return g, cells
}

// window returns the half-width w of the candidate window [s-w, s+w]
// (MaxNeighbors/2, at least 1; MaxNeighbors <= 0 selects 64).
func window(cfg Config) int {
	maxNbr := cfg.MaxNeighbors
	if maxNbr <= 0 {
		maxNbr = 64
	}
	return max(maxNbr/2, 1)
}

// maskWords is the number of 64-bit words holding one point's in-radius
// bits: a window has 2w candidates besides the point itself.
func maskWords(w int) int { return (2*w + 63) / 64 }

// runScratch holds kernel's working arrays, freshly allocated (and so
// zeroed) per run.
type runScratch struct {
	partial          [][]int32
	cellIdx, counts  []int32
	order, cursor    []int32
	parent, posOf    []int32
	pts, density     []float64
	mask             []uint64
	pairs            []int
	min, scale, maxv []float64
}

func newScratch(n, cells, threads, d, words int) *runScratch {
	s := &runScratch{
		partial: make([][]int32, threads),
		cellIdx: make([]int32, n),
		counts:  make([]int32, cells+1),
		order:   make([]int32, n),
		cursor:  make([]int32, cells),
		parent:  make([]int32, n),
		posOf:   make([]int32, n),
		pts:     make([]float64, n*d),
		density: make([]float64, n),
		mask:    make([]uint64, n*words),
		pairs:   make([]int, threads),
		min:     make([]float64, d),
		scale:   make([]float64, d),
		maxv:    make([]float64, d),
	}
	for t := range s.partial {
		s.partial[t] = make([]int32, cells)
	}
	return s
}

// maxCells caps a set CellsPerDim's grid, about 33 times full-size
// hop-default's 125k cells, so an oversized grid is an error before
// anything is allocated instead of an int overflow in the binning.
const maxCells = 1 << 22

// check rejects the inputs neither Run nor Count accepts, so both fail
// with the same error.
func check(ds *datagen.Dataset, cfg Config, threads int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if threads < 1 {
		return errors.New("hop: threads must be >= 1")
	}
	d := ds.D()
	if d > 4 {
		return fmt.Errorf("hop: dimensionality %d too high for grid neighbors", d)
	}
	if g := cfg.CellsPerDim; g > 0 {
		cells := 1
		for range d {
			// cells <= maxCells/g keeps cells*g in the cap, and so in int.
			if cells > maxCells/g {
				return fmt.Errorf("hop: CellsPerDim %d in %d dimensions exceeds %d grid cells", g, d, maxCells)
			}
			cells *= g
		}
	}
	return nil
}

// kernel runs hop's pipeline on pool's workers up to the cross-chunk
// merge: bounding box, binning, the cell-count merge, placement, and the
// density and hop passes. It adds those sections' work to prof, timing
// them when timing is set, and returns its scratch with parent (each
// point's densest in-range candidate, itself at a density peak) and posOf
// (each point's position in cell-sorted order) filled. Neither depends on
// the pool's size.
func kernel(points []float64, n, d int, cfg Config, pool *parallel.Pool, prof *trace.Profile, timing bool) *runScratch {
	threads := pool.Threads()
	// ---- init: bounding box and grid geometry (excluded from serial
	// fraction, as the paper subtracts initialization).
	var tInit *trace.Timer
	if timing {
		tInit = prof.StartTimer(trace.SecInit)
	}
	gr := &grid{d: d}
	gr.g, gr.cells = gridDim(n, d, cfg.CellsPerDim)
	words := maskWords(window(cfg))
	scr := newScratch(n, gr.cells, threads, d, words)
	gr.min = scr.min
	gr.scale = scr.scale
	maxv := scr.maxv
	for j := 0; j < d; j++ {
		gr.min[j] = math.MaxFloat64
		maxv[j] = -math.MaxFloat64
	}
	for i := 0; i < n; i++ {
		pt := points[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			if pt[j] < gr.min[j] {
				gr.min[j] = pt[j]
			}
			if pt[j] > maxv[j] {
				maxv[j] = pt[j]
			}
		}
	}
	for j := 0; j < d; j++ {
		span := maxv[j] - gr.min[j]
		if span <= 0 {
			span = 1
		}
		gr.scale[j] = span / float64(gr.g) * 1.0000001 // keep max in range
	}
	if timing {
		tInit.Stop()
	}
	prof.AddWork(trace.SecInit, float64(n*d*2))

	// ---- parallel: binning (the tree-construction kernel). Each thread
	// counts its chunk into a private cell-count array.
	partial := scr.partial
	cellIdx := scr.cellIdx
	var tPar *trace.Timer
	if timing {
		tPar = prof.StartTimer(trace.SecParallel)
	}
	pool.For(n, func(id, lo, hi int) {
		counts := partial[id]
		for i := lo; i < hi; i++ {
			c := gr.cellOf(points[i*d : (i+1)*d])
			cellIdx[i] = int32(c)
			counts[c]++
		}
	})
	if timing {
		tPar.Stop()
	}
	prof.AddWork(trace.SecParallel, float64(n*(3*d+1)))

	// ---- merging phase, part 1: combine per-thread cell counts. This is
	// hop's dominant reduction: threads × cells operations over a working
	// set that overflows caches (the paper's superlinear case).
	var tRed *trace.Timer
	if timing {
		tRed = prof.StartTimer(trace.SecReduction)
	}
	counts := scr.counts
	for t := 0; t < threads; t++ {
		pc := partial[t]
		for c, v := range pc {
			counts[c+1] += v
		}
	}
	if timing {
		tRed.Stop()
	}
	prof.AddWork(trace.SecReduction, float64(threads*gr.cells))

	// ---- serial: prefix sum and placement (scatter points into sorted
	// order). Constant work regardless of thread count.
	var tSer *trace.Timer
	if timing {
		tSer = prof.StartTimer(trace.SecSerial)
	}
	gr.start = counts
	for c := 0; c < gr.cells; c++ {
		gr.start[c+1] += gr.start[c]
	}
	gr.order = scr.order
	cursor := scr.cursor
	for i := 0; i < n; i++ {
		c := cellIdx[i]
		gr.order[gr.start[c]+cursor[c]] = int32(i)
		cursor[c]++
	}
	if timing {
		tSer.Stop()
	}
	prof.AddWork(trace.SecSerial, float64(gr.cells+n))

	// ---- parallel: density estimation over neighbor cells, then hop to
	// the densest neighbor. Work is counted exactly per thread.
	radius2 := 0.0
	for j := 0; j < d; j++ {
		radius2 += gr.scale[j] * gr.scale[j]
	}

	// Candidates for a point at sorted position s are the window
	// [s-w, s+w] of the cell-sorted order: the grid sort places spatial
	// neighbors next to each other, so the window approximates HOP's
	// Ndens nearest neighbors with bounded work, and overlapping windows
	// let hops chain toward each blob's density peak.
	w := window(cfg)
	lohi := func(s int) (int, int) {
		return max(s-w, 0), min(s+w+1, n)
	}

	// Both passes index by sorted position: pts holds the points gathered
	// into cell-sorted order, density[s] is the density of point order[s],
	// and mask[s*words:] marks which window candidates lie within radius2
	// (bit c-(s-w) below s, c-(s-w)-1 above it), so the hop pass reads
	// contiguous memory and recomputes no distance.
	pts := scr.pts
	density := scr.density
	mask := scr.mask
	pairs := scr.pairs
	parent := scr.parent

	if timing {
		tPar = prof.StartTimer(trace.SecParallel)
	}
	pool.For(n, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			o := int(gr.order[s])
			copy(pts[s*d:(s+1)*d], points[o*d:(o+1)*d])
		}
	})
	pool.For(n, func(id, lo, hi int) {
		np := 0
		for s := lo; s < hi; s++ {
			pt := pts[s*d : (s+1)*d]
			m := mask[s*words : (s+1)*words]
			wlo, whi := lohi(s)
			np += whi - wlo - 1
			den := 0.0
			for c := wlo; c < whi; c++ {
				if c == s {
					continue
				}
				op := pts[c*d : (c+1)*d]
				dist := 0.0
				for j, v := range pt {
					diff := v - op[j]
					dist += diff * diff
				}
				if dist <= radius2 {
					den += 1 / (1 + dist)
					b := c - s + w
					if c > s {
						b--
					}
					m[b>>6] |= 1 << (b & 63)
				}
			}
			density[s] = den
		}
		pairs[id] = np
	})
	if timing {
		tPar.Stop()
	}

	// Hop pass: each point adopts its densest in-range candidate.
	if timing {
		tPar = prof.StartTimer(trace.SecParallel)
	}
	pool.For(n, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			best, bestDen := gr.order[s], density[s]
			for k, bitsLeft := range mask[s*words : (s+1)*words] {
				for bitsLeft != 0 {
					b := k<<6 + bits.TrailingZeros64(bitsLeft)
					bitsLeft &= bitsLeft - 1
					c := s - w + b
					if b >= w {
						c++
					}
					o, den := gr.order[c], density[c]
					if den > bestDen || (den == bestDen && o > best) {
						bestDen = den
						best = o
					}
				}
			}
			parent[gr.order[s]] = best
		}
	})
	if timing {
		tPar.Stop()
	}
	// Each candidate pair costs 3d+2 ops in the density pass and 3d+3 in
	// the hop pass. The counts are integers, so the float sum is exact.
	for _, np := range pairs {
		prof.AddWork(trace.SecParallel, float64(np*(3*d+2)))
		prof.AddWork(trace.SecParallel, float64(np*(3*d+3)))
	}

	posOf := scr.posOf // point -> position in sorted order
	for s := 0; s < n; s++ {
		posOf[gr.order[s]] = int32(s)
	}
	return scr
}

// Run executes hop natively with instrumented phases.
func Run(ds *datagen.Dataset, cfg Config, threads int, timing bool) (*Result, *trace.Profile, error) {
	if err := check(ds, cfg, threads); err != nil {
		return nil, nil, err
	}
	n := ds.N()
	prof := trace.NewProfile("hop", threads)
	// Draw the points before the pool starts and the init timer runs, so
	// no timed section includes data generation.
	points := ds.Points()
	pool, err := parallel.NewPool(threads)
	if err != nil {
		return nil, nil, err
	}
	defer pool.Close()
	scr := kernel(points, n, ds.D(), cfg, pool, prof, timing)
	parent, posOf := scr.parent, scr.posOf

	// ---- merging phase, part 2: cross-chunk group merge. Each thread
	// found roots within its chunk of the sorted order; the master resolves
	// parent edges that cross chunk boundaries. The number of cross edges
	// grows with the thread count.
	ranges := parallel.Split(n, threads)
	chunkOf := func(sortedPos int32) int {
		for t, r := range ranges {
			if int(sortedPos) < r.Hi {
				return t
			}
		}
		return threads - 1
	}
	var tRed *trace.Timer
	if timing {
		tRed = prof.StartTimer(trace.SecReduction)
	}
	crossEdges := 0
	for i := 0; i < n; i++ {
		p := parent[i]
		if int(p) != i && chunkOf(posOf[i]) != chunkOf(posOf[p]) {
			crossEdges++
		}
	}
	if timing {
		tRed.Stop()
	}
	prof.AddWork(trace.SecReduction, float64(crossEdges))

	// ---- serial: root chase with path compression and relabel.
	root := make([]int32, n)
	var tSer *trace.Timer
	if timing {
		tSer = prof.StartTimer(trace.SecSerial)
	}
	var find func(i int32) int32
	find = func(i int32) int32 {
		if parent[i] == i {
			return i
		}
		r := find(parent[i])
		parent[i] = r
		return r
	}
	groups := 0
	for i := 0; i < n; i++ {
		root[i] = find(int32(i))
	}
	for i := 0; i < n; i++ {
		if parent[i] == int32(i) {
			groups++
		}
	}
	if timing {
		tSer.Stop()
	}
	prof.AddWork(trace.SecSerial, float64(2*n))

	out := make([]int, n)
	for i := range root {
		out[i] = int(root[i])
	}
	return &Result{Group: out, Groups: groups}, prof, nil
}

// Count returns the profile Run counts, section by section and in Run's
// order, without running the kernel per thread count: every section but
// the cross-chunk merge is a closed form in n, d, the window and the
// Split ranges, and the cross edges are read off the one memoized kernel
// pass for (ds.Spec, cfg).
func Count(ds *datagen.Dataset, cfg Config, threads int) (*trace.Profile, error) {
	if err := check(ds, cfg, threads); err != nil {
		return nil, err
	}
	n, d := ds.N(), ds.D()
	_, cells := gridDim(n, d, cfg.CellsPerDim)
	w := window(cfg)
	ranges := parallel.Split(n, threads)
	prof := trace.NewProfile("hop", threads)
	prof.AddWork(trace.SecInit, float64(n*d*2))
	prof.AddWork(trace.SecParallel, float64(n*(3*d+1)))
	prof.AddWork(trace.SecReduction, float64(threads*cells))
	prof.AddWork(trace.SecSerial, float64(cells+n))
	for _, r := range ranges {
		np := windowPairs(r.Hi, n, w) - windowPairs(r.Lo, n, w)
		prof.AddWork(trace.SecParallel, float64(np*(3*d+2)))
		prof.AddWork(trace.SecParallel, float64(np*(3*d+3)))
	}
	prof.AddWork(trace.SecReduction, float64(passFor(ds, cfg).crossEdges(ranges)))
	prof.AddWork(trace.SecSerial, float64(2*n))
	return prof, nil
}

// windowPairs counts the candidate pairs the density pass scans over the
// sorted positions [0, s) of n: position x pairs with the
// min(x+w+1, n) - max(x-w, 0) - 1 other positions of its window. Summed,
// the upper bounds less x itself give s·w + s(s-1)/2 minus their overhang
// past n, and the lower bounds give tri(s-w-1).
func windowPairs(s, n, w int) int {
	tri := func(m int) int {
		m = max(m, 0)
		return m * (m + 1) / 2
	}
	overhang := tri(s+w-n) - tri(w-n)
	return s*w + s*(s-1)/2 - overhang - tri(s-w-1)
}

// passKey is everything a kernel pass's parent edges depend on.
type passKey struct {
	spec datagen.Spec
	cfg  Config
}

// pass is one kernel run reduced to what Count reads: parentPos[s] is the
// sorted position of the parent of the point at sorted position s, or -1
// where that point is a root. It is taken before Run's root chase would
// compress the parents.
type pass struct {
	once      sync.Once
	parentPos []int32
}

// passes memoizes one kernel pass per passKey: count-mode runs at every
// thread count read the same one, so a quick `run all` runs hop's kernel
// once instead of once per thread count. Count validates before it gets
// here, so no invalid key is stored, and the key set is bounded: only
// registry specs reach hop, and no CLI or HTTP input reaches its Config.
// Timed runs call Run, so -duration still times the kernel at every
// thread count.
var passes sync.Map // passKey -> *pass

// passesBuilt counts kernel passes run through passFor; see PassesBuilt.
var passesBuilt atomic.Uint64

// PassesBuilt reports how many kernel passes this process has run for
// count-mode profiles — a hook for tests asserting that count-mode runs
// sharing a data set share its pass.
func PassesBuilt() uint64 { return passesBuilt.Load() }

// passFor returns the memoized pass for (ds.Spec, cfg), running the kernel
// on one thread the first time. The kernel's scratch is dropped once the
// parent positions are taken.
func passFor(ds *datagen.Dataset, cfg Config) *pass {
	k := passKey{spec: ds.Spec, cfg: cfg}
	v, ok := passes.Load(k)
	if !ok {
		v, _ = passes.LoadOrStore(k, new(pass))
	}
	p := v.(*pass)
	p.once.Do(func() {
		n := ds.N()
		pool, err := parallel.NewPool(1)
		if err != nil {
			panic(err) // unreachable: a pool of one is always valid
		}
		defer pool.Close()
		scr := kernel(ds.Points(), n, ds.D(), cfg, pool, trace.NewProfile("hop", 1), false)
		p.parentPos = make([]int32, n)
		for s, i := range scr.order {
			if q := scr.parent[i]; q == i {
				p.parentPos[s] = -1
			} else {
				p.parentPos[s] = scr.posOf[q]
			}
		}
		passesBuilt.Add(1)
	})
	return p
}

// crossEdges counts the parent edges whose two ends fall in different
// chunks of ranges: Run's cross-chunk merge work at len(ranges) threads.
func (p *pass) crossEdges(ranges []parallel.Range) int {
	cross := 0
	for _, r := range ranges {
		for _, q := range p.parentPos[r.Lo:r.Hi] {
			if q >= 0 && (int(q) < r.Lo || int(q) >= r.Hi) {
				cross++
			}
		}
	}
	return cross
}

// RunNative implements workload.Native. Without timing nothing reads the
// grouping, so the profile is Count's, built from one memoized kernel pass
// per data set instead of a kernel run per thread count.
func (w *Hop) RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error) {
	if !timing {
		return Count(ds, w.Cfg, threads)
	}
	_, prof, err := Run(ds, w.Cfg, threads, true)
	return prof, err
}

// BuildProgram implements workload.Workload. The generated program mirrors
// hop's structure: binning and two neighbor passes in the parallel phase,
// the cell-count merge (threads × cells loads of remote-modified lines plus
// per-thread boundary tables that grow with the core count) in the merging
// phase, and placement/relabel in the serial section.
func (w *Hop) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	if scale < 1 {
		scale = 1
	}
	n := ds.N() / scale
	d := ds.D()
	if n < cfg.Cores*4 {
		return nil, fmt.Errorf("hop: scaled N=%d too small for %d cores", n, cfg.Cores)
	}
	_, cells := gridDim(n, d, 0)
	const f8 = 8
	const i4 = 4
	avgNbr := 4 * 27.0 // ~4 points/cell × 3^3 neighbor cells
	if d < 3 {
		avgNbr = 4 * math.Pow(3, float64(d))
	}

	b := sim.NewBuilder(cfg.Cores)
	b.Phase("init")
	b.LoadRange(0, workload.AddrPoints, uint64(64*d*f8), cfg.LineSz)
	b.Compute(0, uint64(n*d/8)) // sampled bounding box
	b.Barrier()

	ranges := parallel.Split(n, cfg.Cores)
	cellBytes := uint64(cells * i4)

	// Parallel phase: binning + density + hop passes.
	b.Phase("parallel")
	for id := 0; id < cfg.Cores; id++ {
		r := ranges[id]
		pts := r.Hi - r.Lo
		if pts <= 0 {
			continue
		}
		chunkAddr := workload.AddrPoints + uint64(r.Lo*d*f8)
		chunkBytes := uint64(pts * d * f8)
		// Binning: stream the chunk, update private cell counts.
		b.LoadRange(id, chunkAddr, chunkBytes, cfg.LineSz)
		b.Compute(id, uint64(pts*(3*d+1)))
		b.StoreRange(id, workload.PartialBase(id), cellBytes, cfg.LineSz)
		// Density + hop: two more streaming passes with neighbor work.
		b.LoadRange(id, chunkAddr, chunkBytes, cfg.LineSz)
		b.Compute(id, uint64(float64(pts)*avgNbr*float64(3*d+2)))
		b.LoadRange(id, chunkAddr, chunkBytes, cfg.LineSz)
		b.Compute(id, uint64(float64(pts)*avgNbr*float64(3*d+3)))
	}
	b.Barrier()

	// Merging phase: master gathers every thread's cell counts (remote
	// modified lines — coherence traffic grows with cores) and each
	// thread's boundary table, whose size itself grows with the core count
	// (more chunk boundaries → more cross edges): the superlinear term.
	b.Phase("reduction")
	boundaryLines := uint64(cfg.Cores) * 4
	for id := 0; id < cfg.Cores; id++ {
		b.LoadRange(0, workload.PartialBase(id), cellBytes, cfg.LineSz)
		b.Compute(0, uint64(cells))
		b.LoadRange(0, workload.PartialBase(id)+cellBytes, boundaryLines*uint64(cfg.LineSz), cfg.LineSz)
		b.Compute(0, boundaryLines*8)
	}
	b.Barrier()

	// Serial section: prefix sum, placement scatter, relabel.
	b.Phase("serial")
	b.Compute(0, uint64(cells+3*n))
	b.StoreRange(0, workload.AddrCenters, uint64(n*i4), cfg.LineSz)
	b.Barrier()

	return b.Build()
}

var _ workload.Native = (*Hop)(nil)
