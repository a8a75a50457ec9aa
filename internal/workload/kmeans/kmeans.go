// Package kmeans implements the MineBench k-means clustering benchmark:
// a fork-join parallel assignment phase over the points, followed by the
// merging phase of Algorithm 1 in the paper — a serial accumulation of
// per-thread partial sums whose work grows linearly with the thread count.
package kmeans

import (
	"math"

	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
)

// Config holds algorithm parameters.
type Config struct {
	K        int // clusters
	Iters    int // fixed iteration count (deterministic across threads)
	Strategy reduction.Strategy
}

// DefaultConfig matches the MineBench default: 8 clusters. Ten iterations
// keep runs short while exercising every phase each iteration.
func DefaultConfig() Config {
	return Config{K: 8, Iters: 10, Strategy: reduction.Linear}
}

// centroid returns c as the Algorithm-1 shape that counts and compiles it.
func (c Config) centroid() workload.Centroid {
	return workload.Centroid{Name: "kmeans", K: c.K, Iters: c.Iters, Strategy: c.Strategy,
		OpsPerPoint: opsPerPoint, SerialOps: serialOps}
}

// Validate checks the configuration.
func (c Config) Validate() error { return c.centroid().Validate() }

// Result carries the clustering output.
type Result struct {
	Centers []float64 // K*D
	Assign  []int     // N
	Iters   int
	Delta   float64 // total center movement in the last iteration
}

// KMeans is the workload adapter.
type KMeans struct {
	Cfg Config
}

// New returns a kmeans workload with the default configuration.
func New() *KMeans { return &KMeans{Cfg: DefaultConfig()} }

// Name implements workload.Workload.
func (w *KMeans) Name() string { return "kmeans" }

// Params implements workload.Workload: Cfg is a plain scalar struct, so it
// renders deterministically into engine cache keys.
func (w *KMeans) Params() any { return w.Cfg }

// DefaultSpec implements workload.Workload.
func (w *KMeans) DefaultSpec() datagen.Spec { return datagen.KMeansBase }

// opsPerPoint returns the assignment-phase flop count per point:
// K distance evaluations of 3D flops each, K comparisons, and D+1
// accumulations into the private partial sums.
func opsPerPoint(k, d int) float64 { return float64(3*k*d + k + d + 1) }

// serialOps is the serial section's convergence bookkeeping: per center
// coordinate, the difference, its square added into the delta, and the
// copy.
func serialOps(k, d int) int { return 3 * k * d }

// Count returns the profile of operation counts that Run records for cfg
// on ds with the given thread count, without clustering anything (see
// workload.Centroid.Count). It fails where Run does, with the same error.
func Count(ds *datagen.Dataset, cfg Config, threads int) (*trace.Profile, error) {
	return cfg.centroid().Count(ds, threads)
}

// Run executes k-means natively and returns the clustering result together
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

	// --- init: centers start at the first K points (MineBench behaviour).
	var tInit *trace.Timer
	if timing {
		tInit = prof.StartTimer(trace.SecInit)
	}
	centers := make([]float64, k*d)
	copy(centers, points[:k*d])
	assign := make([]int, n)
	width := k * (d + 1) // per-cluster: D coordinate sums + 1 count
	pv := parallel.NewPrivatized(threads, width)
	sums := make([]float64, width)
	newCenters := make([]float64, k*d)
	// Per-thread scratch for one point's K center distances.
	dists := parallel.NewPrivatized(threads, k)
	if timing {
		tInit.Stop()
	}

	delta := 0.0
	// The parallel-phase body reads only iteration-stable state (centers is
	// updated in place), so one closure serves every iteration.
	assignBody := func(id, lo, hi int) {
		buf := pv.Buf(id)
		dist := dists.Buf(id)[:k]
		for i := lo; i < hi; i++ {
			pt := points[i*d : (i+1)*d]
			workload.SqDists(dist, pt, centers)
			best, bestDist := 0, math.MaxFloat64
			for c, dc := range dist {
				if dc < bestDist {
					best, bestDist = c, dc
				}
			}
			assign[i] = best
			base := best * (d + 1)
			for j := 0; j < d; j++ {
				buf[base+j] += pt[j]
			}
			buf[base+d]++
		}
	}
	for iter := 0; iter < cfg.Iters; iter++ {
		// --- parallel phase: assign points, accumulate private partials.
		pv.Reset()
		var tPar *trace.Timer
		if timing {
			tPar = prof.StartTimer(trace.SecParallel)
		}
		pool.For(n, assignBody)
		if timing {
			tPar.Stop()
		}

		// --- merging phase (Algorithm 1): executed by the master thread.
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
		// Normalize into new centers (constant part of the merge).
		for c := 0; c < k; c++ {
			cnt := sums[c*(d+1)+d]
			for j := 0; j < d; j++ {
				if cnt > 0 {
					newCenters[c*d+j] = sums[c*(d+1)+j] / cnt
				} else {
					newCenters[c*d+j] = centers[c*d+j]
				}
			}
		}
		if timing {
			tRed.Stop()
		}

		// --- serial section: convergence bookkeeping.
		var tSer *trace.Timer
		if timing {
			tSer = prof.StartTimer(trace.SecSerial)
		}
		delta = 0
		for i := range centers {
			diff := newCenters[i] - centers[i]
			delta += diff * diff
			centers[i] = newCenters[i]
		}
		if timing {
			tSer.Stop()
		}
	}

	return &Result{Centers: centers, Assign: assign, Iters: cfg.Iters, Delta: delta}, prof, nil
}

// RunNative implements workload.Native. Without timing nothing reads the
// clustering, so the profile is Count's and no kernel runs.
func (w *KMeans) RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error) {
	if !timing {
		return Count(ds, w.Cfg, threads)
	}
	_, prof, err := Run(ds, w.Cfg, threads, true)
	return prof, err
}

// BuildProgram implements workload.Workload: it compiles the same phase
// structure into the simulator IR (see workload.Centroid.BuildProgram).
func (w *KMeans) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	return w.Cfg.centroid().BuildProgram(ds, cfg, scale)
}

var _ workload.Native = (*KMeans)(nil)
