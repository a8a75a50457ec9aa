package workload

import (
	"errors"
	"fmt"

	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// Centroid is the shape of Algorithm 1 in the paper, shared by kmeans and
// fuzzy: each iteration every thread streams its chunk of the points
// against the K shared centers and fills a private buffer of K*(D+1)
// partials, then the master merges every thread's partials into new
// centers and runs a constant serial section. The two applications
// differ only in OpsPerPoint and SerialOps.
type Centroid struct {
	Name     string // error-message prefix and profile name
	K        int    // clusters
	Iters    int    // fixed iteration count
	Strategy reduction.Strategy
	// OpsPerPoint is the parallel-phase flop count per point.
	OpsPerPoint func(k, d int) float64
	// SerialOps is the serial section's op count per iteration.
	SerialOps func(k, d int) int
}

// Validate checks K and Iters. Strategy is checked by Count only: a
// simulator program always merges linearly.
func (c Centroid) Validate() error {
	if c.K < 1 {
		return errors.New(c.Name + ": K must be >= 1")
	}
	if c.Iters < 1 {
		return errors.New(c.Name + ": Iters must be >= 1")
	}
	return nil
}

// Count returns the profile of operation counts a native run of c records
// on ds with the given thread count, without clustering anything: every
// count is a formula in N, D, K, Iters, threads and the merge strategy, so
// no point value enters it. Each iteration's counts are added in turn, so
// the float totals round exactly as per-iteration accounting does.
func (c Centroid) Count(ds *datagen.Dataset, threads int) (*trace.Profile, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if threads < 1 {
		return nil, errors.New(c.Name + ": threads must be >= 1")
	}
	n, d, k := ds.N(), ds.D(), c.K
	if k > n {
		return nil, fmt.Errorf("%s: K=%d exceeds N=%d", c.Name, k, n)
	}
	if err := c.Strategy.Validate(); err != nil {
		return nil, err
	}
	// Merge: the strategy's critical path over K*(D+1) partials, plus
	// normalizing the sums into new centers.
	merge := float64(reduction.CostOf(c.Strategy, threads, k*(d+1)).CriticalOps) + float64(2*k*d)
	prof := trace.NewProfile(c.Name, threads)
	prof.AddWork(trace.SecInit, float64(k*d))
	for iter := 0; iter < c.Iters; iter++ {
		prof.AddWork(trace.SecParallel, float64(n)*c.OpsPerPoint(k, d))
		prof.AddWork(trace.SecReduction, merge)
		prof.AddWork(trace.SecSerial, float64(c.SerialOps(k, d)))
	}
	return prof, nil
}

// BuildProgram compiles c into the simulator IR for the given machine
// configuration. Loads and stores are emitted at cache-line granularity;
// per-point arithmetic is aggregated into compute bursts (the in-order
// core model makes op interleaving timing-neutral). scale > 1 divides the
// point count; the merge work is unscaled.
func (c Centroid) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if scale < 1 {
		scale = 1
	}
	n := ds.N() / scale
	d, k := ds.D(), c.K
	if n < cfg.Cores || n < k {
		return nil, fmt.Errorf("%s: scaled N=%d too small for %d cores / K=%d", c.Name, n, cfg.Cores, k)
	}
	b := sim.NewBuilder(cfg.Cores)
	const f8 = 8 // bytes per float64
	centerBytes := uint64(k * d * f8)
	partialBytes := uint64(k * (d + 1) * f8)

	// init: master reads the first K points and writes the centers.
	b.Phase("init")
	b.LoadRange(0, AddrPoints, centerBytes, cfg.LineSz)
	b.Compute(0, uint64(k*d))
	b.StoreRange(0, AddrCenters, centerBytes, cfg.LineSz)
	b.Barrier()

	ranges := parallel.Split(n, cfg.Cores)
	for iter := 0; iter < c.Iters; iter++ {
		b.Phase("parallel")
		for id := 0; id < cfg.Cores; id++ {
			r := ranges[id]
			pts := r.Hi - r.Lo
			if pts <= 0 {
				continue
			}
			// Read the shared centers, stream this core's point chunk,
			// accumulate into the private partial buffer.
			b.LoadRange(id, AddrCenters, centerBytes, cfg.LineSz)
			b.LoadRange(id, AddrPoints+uint64(r.Lo*d*f8), uint64(pts*d*f8), cfg.LineSz)
			b.Compute(id, uint64(float64(pts)*c.OpsPerPoint(k, d)))
			b.StoreRange(id, PartialBase(id), partialBytes, cfg.LineSz)
		}
		b.Barrier()

		// merging phase: master gathers every thread's partials (coherence
		// transfers that grow with the core count), accumulates, and
		// publishes the new centers.
		b.Phase("reduction")
		for id := 0; id < cfg.Cores; id++ {
			b.LoadRange(0, PartialBase(id), partialBytes, cfg.LineSz)
			b.Compute(0, uint64(k*(d+1)))
		}
		b.Compute(0, uint64(2*k*d))
		b.StoreRange(0, AddrCenters, centerBytes, cfg.LineSz)
		b.Barrier()

		b.Phase("serial")
		b.Compute(0, uint64(c.SerialOps(k, d)))
		b.Barrier()
	}
	return b.Build()
}
