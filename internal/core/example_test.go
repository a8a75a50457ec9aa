package core_test

import (
	"fmt"

	"mergescale/internal/core"
)

// ExampleSweepSymmetric sweeps a symmetric-CMP design space: one Eq. 4
// evaluation per core size r, returned in grid order.
func ExampleSweepSymmetric() {
	app := core.AppParams{Name: "class", F: 0.99, FCon: 0.60, FOred: 0.80, Growth: core.GrowthLinear}
	pts := core.SweepSymmetric(app, core.DefaultBudget, []float64{1, 4, 16, 64})
	for _, p := range pts {
		fmt.Printf("r=%-3.0f speedup=%.1f\n", p.R, p.Speedup)
	}
	// Output:
	// r=1   speedup=1.2
	// r=4   speedup=8.8
	// r=16  speedup=33.4
	// r=64  speedup=30.0
}
