package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSqDistsMatchesPerCenterLoop: for every row count (so every tail
// length after the groups of four) and several dimensions, SqDists
// equals a plain per-center loop bit for bit.
func TestSqDistsMatchesPerCenterLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 3, 9, 18} {
		for k := 1; k <= 9; k++ {
			pt := make([]float64, d)
			centers := make([]float64, k*d)
			for i := range pt {
				pt[i] = rng.NormFloat64() * 10
			}
			for i := range centers {
				centers[i] = rng.NormFloat64() * 10
			}
			got := make([]float64, k)
			SqDists(got, pt, centers)
			for c := 0; c < k; c++ {
				want := 0.0
				for j := 0; j < d; j++ {
					diff := pt[j] - centers[c*d+j]
					want += diff * diff
				}
				if math.Float64bits(got[c]) != math.Float64bits(want) {
					t.Errorf("d=%d k=%d: dist[%d] = %v, per-center loop %v", d, k, c, got[c], want)
				}
			}
		}
	}
}
