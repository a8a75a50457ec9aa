package fuzzy

import (
	"fmt"
	"math"
	"testing"

	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/workload/datagen"
)

// refRun is Run's body as it was with indexed inner loops, one distance
// loop per center, minus the profile: the reference the SqDists and
// range-over-pt kernel must match bit for bit.
func refRun(t *testing.T, ds *datagen.Dataset, cfg Config, threads int) ([]float64, []int) {
	t.Helper()
	n, d, k := ds.N(), ds.D(), cfg.K
	points := ds.Points()
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	centers := make([]float64, k*d)
	copy(centers, points[:k*d])
	assign := make([]int, n)
	width := k * (d + 1)
	pv := parallel.NewPrivatized(threads, width)
	sums := make([]float64, width)
	memb := parallel.NewPrivatized(threads, k)
	parBody := func(id, lo, hi int) {
		buf := pv.Buf(id)
		inv := memb.Buf(id)
		for i := lo; i < hi; i++ {
			pt := points[i*d : (i+1)*d]
			sumInv := 0.0
			for c := 0; c < k; c++ {
				ctr := centers[c*d : (c+1)*d]
				dist := 0.0
				for j := 0; j < d; j++ {
					diff := pt[j] - ctr[j]
					dist += diff * diff
				}
				if dist < epsilon {
					dist = epsilon
				}
				inv[c] = 1 / dist
				sumInv += inv[c]
			}
			best, bestU := 0, -1.0
			for c := 0; c < k; c++ {
				u := inv[c] / sumInv
				if u > bestU {
					best, bestU = c, u
				}
				w2 := u * u
				base := c * (d + 1)
				for j := 0; j < d; j++ {
					buf[base+j] += w2 * pt[j]
				}
				buf[base+d] += w2
			}
			assign[i] = best
		}
	}
	for iter := 0; iter < cfg.Iters; iter++ {
		pv.Reset()
		pool.For(n, parBody)
		for i := range sums {
			sums[i] = 0
		}
		if _, err := reduction.Reduce(cfg.Strategy, pv, sums, nil); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < k; c++ {
			wsum := sums[c*(d+1)+d]
			for j := 0; j < d; j++ {
				if wsum > epsilon {
					centers[c*d+j] = sums[c*(d+1)+j] / wsum
				}
			}
		}
	}
	return centers, assign
}

// TestKernelMatchesIndexedReference: on seeded data sets across
// dimensions, cluster counts (5 leaves a SqDists tail) and thread counts,
// every center and every assignment equals the indexed reference bit for
// bit.
func TestKernelMatchesIndexedReference(t *testing.T) {
	for _, d := range []int{1, 3, 9, 18} {
		ds, err := datagen.Generate(datagen.Spec{Label: "bce", N: 640, D: d, C: 6, Spread: 0.8, Seed: uint64(200 + d)})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 8, 32} {
			for _, threads := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("d%d_k%d_t%d", d, k, threads), func(t *testing.T) {
					cfg := Config{K: k, Iters: 4, Strategy: reduction.Linear}
					res, _, err := Run(ds, cfg, threads, false)
					if err != nil {
						t.Fatal(err)
					}
					centers, assign := refRun(t, ds, cfg, threads)
					for i, c := range centers {
						if got := res.Centers[i]; math.Float64bits(got) != math.Float64bits(c) {
							t.Fatalf("center[%d] = %v, reference %v", i, got, c)
						}
					}
					for i, a := range assign {
						if res.Assign[i] != a {
							t.Fatalf("assign[%d] = %d, reference %d", i, res.Assign[i], a)
						}
					}
				})
			}
		}
	}
}
