// Quickstart: cluster a synthetic data set with parallel k-means, watch the
// merging phase grow with the thread count, and ask the extended Amdahl
// model what that growth does to scalability.
package main

import (
	"context"
	"fmt"
	"log"

	"mergescale/internal/core"
	"mergescale/internal/engine"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/kmeans"
)

func main() {
	// 1. Generate a MineBench-shaped data set (N=17695, D=9, C=8).
	ds, err := datagen.Generate(datagen.KMeansBase)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run parallel k-means at several thread counts, recording the
	// per-section operation counts. A one-worker, uncached engine runs
	// the thread counts one after another.
	w := kmeans.New()
	w.Cfg.Iters = 5
	threadCounts := []int{1, 2, 4, 8, 16}
	eng := engine.New(engine.Config{Workers: 1, DisableCache: true})
	profiles, err := workload.NativeProfiles(context.Background(), eng, w, ds, threadCounts, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("serial-section work, normalized to 1 thread (paper Fig 2b/2c):")
	threads, norm, err := trace.GrowthSeries(profiles, false)
	if err != nil {
		log.Fatal(err)
	}
	for i, th := range threads {
		fmt.Printf("  %2d threads: %.2fx\n", th, norm[i])
	}

	// 3. Extract the model parameters (f, fcon, fored) from the profiles.
	app, err := trace.Extract(profiles, trace.ExtractOptions{Growth: core.GrowthLinear})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextracted parameters: f=%.5f fcon=%.2f fored=%.2f\n",
		app.F, app.FCon, app.FOred)

	// 4. Predict scalability with and without the reduction overhead.
	fmt.Println("\npredicted speedup on p equal cores:")
	fmt.Printf("  %8s  %12s  %12s\n", "cores", "extended", "amdahl")
	for _, p := range core.DoublingCoreCounts(256) {
		ext := core.EqualPerfCMP(app, p)
		amd := core.EqualPerfCMP(app.WithGrowth(core.GrowthNone), p)
		fmt.Printf("  %8d  %12.1f  %12.1f\n", p, ext, amd)
	}
	peakP, peakS := core.PeakCoreCount(app, 4096)
	fmt.Printf("\nthe extended model peaks at %d cores (speedup %.0f) — Amdahl alone would promise %.0f.\n",
		peakP, peakS, core.AmdahlLimit(app.F))
}
