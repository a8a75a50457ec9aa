// Reduction: compare the three merging-phase implementations the paper
// analyzes — serial (linear), tree (logarithmic), and parallel privatized —
// on real data, and show how each maps onto the model's growth functions.
package main

import (
	"fmt"
	"log"

	"mergescale/internal/core"
	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
)

func main() {
	const elements = 4096 // reduction elements (x in the paper)

	fmt.Printf("merging %d partial vectors of %d elements:\n\n", 16, elements)
	fmt.Printf("%-10s %14s %14s %10s\n", "strategy", "critical ops", "comm elems", "rounds")
	for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
		pv := parallel.NewPrivatized(16, elements)
		for id := 0; id < 16; id++ {
			buf := pv.Buf(id)
			for i := range buf {
				buf[i] = float64(id*i) / 7
			}
		}
		dst := make([]float64, elements)
		cost, err := reduction.Reduce(s, pv, dst, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14d %14d %10d\n", s, cost.CriticalOps, cost.CommElems, cost.Rounds)
	}

	fmt.Println("\ncritical-path growth with thread count (model prediction):")
	fmt.Printf("%-10s", "threads")
	threadGrid := []int{1, 2, 4, 8, 16, 32, 64}
	for _, th := range threadGrid {
		fmt.Printf("%9d", th)
	}
	fmt.Println()
	for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
		fmt.Printf("%-10s", s)
		for _, th := range threadGrid {
			fmt.Printf("%9d", reduction.PredictedCritical(s, th, elements))
		}
		fmt.Println()
	}

	// What the strategies mean for chip design: the same application with
	// the three corresponding growth/communication models.
	fmt.Println("\npredicted peak speedup on a 256-BCE chip (f=0.99, fcon=60%):")
	b := core.DefaultBudget
	app := core.AppParams{Name: "app", F: 0.99, FCon: 0.60, FOred: 0.80}
	for _, g := range []core.GrowthKind{core.GrowthLinear, core.GrowthLog} {
		best, _ := core.Best(core.SweepSymmetric(app.WithGrowth(g), b, core.PowerOfTwoRs(b.N)))
		fmt.Printf("  %-28s peak %.1f at r=%.0f\n", g.String()+" reduction:", best.Speedup, best.R)
	}
	m := core.NewCommModel(app)
	best, _ := core.Best(core.SweepSymmetric(m, b, core.PowerOfTwoRs(b.N)))
	fmt.Printf("  %-28s peak %.1f at r=%.0f (2D-mesh communication bound)\n",
		"parallel reduction:", best.Speedup, best.R)
}
