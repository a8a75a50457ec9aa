// Package fuzzy implements the MineBench fuzzy c-means clustering
// benchmark (fuzziness m = 2): every point carries a membership degree to
// every cluster, the parallel phase computes memberships and accumulates
// membership-weighted partial sums, and the merging phase combines the
// per-thread partials — the same Algorithm 1 structure as kmeans but with
// a heavier parallel section (hence the paper's larger f = 0.99998).
package fuzzy

import (
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

// centroid returns c as the Algorithm-1 shape that counts and compiles it.
func (c Config) centroid() workload.Centroid {
	return workload.Centroid{Name: "fuzzy", K: c.K, Iters: c.Iters, Strategy: c.Strategy,
		OpsPerPoint: opsPerPoint, SerialOps: serialOps}
}

// Validate checks the configuration.
func (c Config) Validate() error { return c.centroid().Validate() }

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

// serialOps is the serial section's convergence bookkeeping: MineBench
// tracks the objective-function delta; the equivalent constant work is
// accounted, not run.
func serialOps(k, d int) int { return k * d }

// Count returns the profile of operation counts that Run records for cfg
// on ds with the given thread count, without clustering anything (see
// workload.Centroid.Count). It fails where Run does, with the same error.
func Count(ds *datagen.Dataset, cfg Config, threads int) (*trace.Profile, error) {
	return cfg.centroid().Count(ds, threads)
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

// RunNative implements workload.Native. Without timing nothing reads the
// clustering, so the profile is Count's and no kernel runs.
func (w *Fuzzy) RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error) {
	if !timing {
		return Count(ds, w.Cfg, threads)
	}
	_, prof, err := Run(ds, w.Cfg, threads, true)
	return prof, err
}

// BuildProgram implements workload.Workload: it compiles the same phase
// structure into the simulator IR (see workload.Centroid.BuildProgram).
func (w *Fuzzy) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	return w.Cfg.centroid().BuildProgram(ds, cfg, scale)
}

var _ workload.Native = (*Fuzzy)(nil)
