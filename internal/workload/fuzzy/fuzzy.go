// Package fuzzy implements the MineBench fuzzy c-means clustering
// benchmark (fuzziness m = 2): every point carries a membership degree to
// every cluster, the parallel phase computes memberships and accumulates
// membership-weighted partial sums, and the merging phase combines the
// per-thread partials — the same Algorithm 1 structure as kmeans but with
// a heavier parallel section (hence the paper's larger f = 0.99998).
package fuzzy

import (
	"errors"
	"fmt"

	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
)

// Config holds algorithm parameters. Fuzziness is fixed at m = 2, the
// MineBench default, which turns the membership exponent 2/(m-1) into a
// simple square.
type Config struct {
	K        int
	Iters    int
	Strategy reduction.Strategy
}

// DefaultConfig returns the MineBench-like defaults.
func DefaultConfig() Config {
	return Config{K: 8, Iters: 10, Strategy: reduction.Linear}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 1 {
		return errors.New("fuzzy: K must be >= 1")
	}
	if c.Iters < 1 {
		return errors.New("fuzzy: Iters must be >= 1")
	}
	return nil
}

// Result carries the clustering output.
type Result struct {
	Centers []float64 // K*D
	Assign  []int     // argmax membership per point
	Iters   int
}

// Fuzzy is the workload adapter.
type Fuzzy struct {
	Cfg Config
}

// New returns a fuzzy workload with defaults.
func New() *Fuzzy { return &Fuzzy{Cfg: DefaultConfig()} }

// Name implements workload.Workload.
func (w *Fuzzy) Name() string { return "fuzzy" }

// Params implements workload.Workload: Cfg is a plain scalar struct, so it
// renders deterministically into engine cache keys.
func (w *Fuzzy) Params() any { return w.Cfg }

// DefaultSpec implements workload.Workload.
func (w *Fuzzy) DefaultSpec() datagen.Spec { return datagen.FuzzyBase }

// opsPerPoint: K squared distances (3D flops each), K reciprocals, K
// normalizations, and K*(D+1) weighted accumulations with squared
// memberships (2 extra flops per cluster).
func opsPerPoint(k, d int) float64 {
	return float64(3*k*d + 3*k + k*(2*(d+1)+2))
}

const epsilon = 1e-12

// Count returns the profile of operation counts that Run records for cfg
// on ds with the given thread count, without clustering anything (see
// kmeans.Count). It fails where Run does, with the same error.
func Count(ds *datagen.Dataset, cfg Config, threads int) (*trace.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if threads < 1 {
		return nil, errors.New("fuzzy: threads must be >= 1")
	}
	n, d, k := ds.N(), ds.D(), cfg.K
	if k > n {
		return nil, fmt.Errorf("fuzzy: K=%d exceeds N=%d", k, n)
	}
	if err := cfg.Strategy.Validate(); err != nil {
		return nil, err
	}
	merge := float64(reduction.CostOf(cfg.Strategy, threads, k*(d+1)).CriticalOps) + float64(2*k*d)
	prof := trace.NewProfile("fuzzy", threads)
	prof.AddWork(trace.SecInit, float64(k*d))
	for iter := 0; iter < cfg.Iters; iter++ {
		prof.AddWork(trace.SecParallel, float64(n)*opsPerPoint(k, d))
		prof.AddWork(trace.SecReduction, merge)
		// Convergence bookkeeping: MineBench tracks the objective-function
		// delta; the equivalent constant work is accounted, not run.
		prof.AddWork(trace.SecSerial, float64(k*d))
	}
	return prof, nil
}

// Run executes fuzzy c-means natively and returns the clustering result
// with its profile: Count's operation counts, plus per-section wall time
// when timing is set.
func Run(ds *datagen.Dataset, cfg Config, threads int, timing bool) (*Result, *trace.Profile, error) {
	prof, err := Count(ds, cfg, threads)
	if err != nil {
		return nil, nil, err
	}
	n, d, k := ds.N(), ds.D(), cfg.K
	// Draw the points before the pool starts and the init timer runs, so
	// no timed section includes data generation.
	points := ds.Points()
	pool, err := parallel.NewPool(threads)
	if err != nil {
		return nil, nil, err
	}
	defer pool.Close()

	var tInit *trace.Timer
	if timing {
		tInit = prof.StartTimer(trace.SecInit)
	}
	centers := make([]float64, k*d)
	copy(centers, points[:k*d])
	assign := make([]int, n)
	width := k * (d + 1) // weighted coordinate sums + weight sums
	pv := parallel.NewPrivatized(threads, width)
	sums := make([]float64, width)
	if timing {
		tInit.Stop()
	}

	// Scratch membership buffers, one per thread (avoids allocation in the
	// hot loop).
	memb := parallel.NewPrivatized(threads, k)

	// The parallel-phase body reads only iteration-stable state (centers is
	// updated in place), so one closure serves every iteration. Distances
	// come from workload.SqDists, and the membership scratch is re-sliced
	// to k and the partial rows to len(pt), so the inner loops carry no
	// bounds checks; the arithmetic and its order are unchanged.
	parBody := func(id, lo, hi int) {
		buf := pv.Buf(id)
		inv := memb.Buf(id)[:k]
		for i := lo; i < hi; i++ {
			pt := points[i*d : (i+1)*d]
			// Inverse squared distances, computed in place.
			workload.SqDists(inv, pt, centers)
			sumInv := 0.0
			for c, dist := range inv {
				if dist < epsilon {
					dist = epsilon
				}
				inv[c] = 1 / dist
				sumInv += inv[c]
			}
			// Memberships u_c = inv_c / sumInv; accumulate u² weights.
			best, bestU := 0, -1.0
			for c, ic := range inv {
				u := ic / sumInv
				if u > bestU {
					best, bestU = c, u
				}
				w2 := u * u
				base := c * (d + 1)
				sum := buf[base:][:len(pt)]
				for j, v := range pt {
					sum[j] += w2 * v
				}
				buf[base+d] += w2
			}
			assign[i] = best
		}
	}
	for iter := 0; iter < cfg.Iters; iter++ {
		pv.Reset()
		var tPar *trace.Timer
		if timing {
			tPar = prof.StartTimer(trace.SecParallel)
		}
		pool.For(n, parBody)
		if timing {
			tPar.Stop()
		}

		var tRed *trace.Timer
		if timing {
			tRed = prof.StartTimer(trace.SecReduction)
		}
		for i := range sums {
			sums[i] = 0
		}
		if _, err := reduction.Reduce(cfg.Strategy, pv, sums, nil); err != nil {
			return nil, nil, err
		}
		for c := 0; c < k; c++ {
			wsum := sums[c*(d+1)+d]
			for j := 0; j < d; j++ {
				if wsum > epsilon {
					centers[c*d+j] = sums[c*(d+1)+j] / wsum
				}
			}
		}
		if timing {
			tRed.Stop()
		}

		// Convergence bookkeeping is counted, not run (see Count); its
		// timer still brackets the empty section.
		var tSer *trace.Timer
		if timing {
			tSer = prof.StartTimer(trace.SecSerial)
		}
		if timing {
			tSer.Stop()
		}
	}
	return &Result{Centers: centers, Assign: assign, Iters: cfg.Iters}, prof, nil
}

// RunNative implements workload.Workload. Without timing nothing reads the
// clustering, so the profile is Count's and no kernel runs.
func (w *Fuzzy) RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error) {
	if !timing {
		return Count(ds, w.Cfg, threads)
	}
	_, prof, err := Run(ds, w.Cfg, threads, true)
	return prof, err
}

// BuildProgram implements workload.Workload (see kmeans.BuildProgram; the
// structure is identical with fuzzy's heavier per-point compute).
func (w *Fuzzy) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	if err := w.Cfg.Validate(); err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	n := ds.N() / scale
	d, k := ds.D(), w.Cfg.K
	if n < cfg.Cores || n < k {
		return nil, fmt.Errorf("fuzzy: scaled N=%d too small for %d cores / K=%d", n, cfg.Cores, k)
	}
	b := sim.NewBuilder(cfg.Cores)
	const f8 = 8
	centerBytes := uint64(k * d * f8)
	partialBytes := uint64(k * (d + 1) * f8)

	b.Phase("init")
	b.LoadRange(0, workload.AddrPoints, centerBytes, cfg.LineSz)
	b.Compute(0, uint64(k*d))
	b.StoreRange(0, workload.AddrCenters, centerBytes, cfg.LineSz)
	b.Barrier()

	ranges := parallel.Split(n, cfg.Cores)
	for iter := 0; iter < w.Cfg.Iters; iter++ {
		b.Phase("parallel")
		for id := 0; id < cfg.Cores; id++ {
			r := ranges[id]
			pts := r.Hi - r.Lo
			if pts <= 0 {
				continue
			}
			b.LoadRange(id, workload.AddrCenters, centerBytes, cfg.LineSz)
			b.LoadRange(id, workload.AddrPoints+uint64(r.Lo*d*f8), uint64(pts*d*f8), cfg.LineSz)
			b.Compute(id, uint64(float64(pts)*opsPerPoint(k, d)))
			b.StoreRange(id, workload.PartialBase(id), partialBytes, cfg.LineSz)
		}
		b.Barrier()

		b.Phase("reduction")
		for id := 0; id < cfg.Cores; id++ {
			b.LoadRange(0, workload.PartialBase(id), partialBytes, cfg.LineSz)
			b.Compute(0, uint64(k*(d+1)))
		}
		b.Compute(0, uint64(2*k*d))
		b.StoreRange(0, workload.AddrCenters, centerBytes, cfg.LineSz)
		b.Barrier()

		b.Phase("serial")
		b.Compute(0, uint64(k*d))
		b.Barrier()
	}
	return b.Build()
}

var _ workload.Workload = (*Fuzzy)(nil)
