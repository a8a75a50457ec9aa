package experiments

import (
	"context"
	"fmt"

	"mergescale/internal/core"
	"mergescale/internal/parallel"
	"mergescale/internal/reduction"
	"mergescale/internal/report"
	"mergescale/internal/topology"
)

// AblGrowth quantifies how the assumed growth function changes the
// predicted peak configuration for the Table II applications — the design
// choice called out in Section III.
func AblGrowth(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "abl-growth", Title: "Growth-function ablation"}
	t := doc.AddTable("Peak equal-core configuration by growth function",
		"Application", "growth", "peak cores", "peak speedup", "speedup at 256")
	for _, app := range core.TableIIApps() {
		for _, g := range []core.GrowthKind{core.GrowthNone, core.GrowthLog, core.GrowthLinear} {
			a := app.WithGrowth(g)
			p, s := core.PeakCoreCount(a, 256)
			at256 := core.EqualPerfCMP(a, 256)
			t.AddRow(app.Name, g.String(), itoa(p),
				f1(s), f1(at256))
		}
	}
	doc.AddNote("Linear growth caps scalability hardest; logarithmic (tree) reduction recovers most of it; constant (Amdahl) is the optimistic upper bound.")
	return doc, nil
}

// AblTopology swaps the interconnect under the communication model
// (Equation 8 assumes a 2D mesh; richer fabrics shift the optimum back
// toward many small cores).
func AblTopology(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "abl-topology", Title: "Interconnect-topology ablation for Eq. 8"}
	b := core.DefaultBudget
	app := core.AppParams{Name: "non-emb-moderate", F: 0.99, FCon: 0.60, Growth: core.GrowthNone}
	t := doc.AddTable("Peak symmetric design by topology",
		"topology", "growcomm(64 cores)", "peak speedup", "peak r")
	for _, kind := range []topology.Kind{topology.Mesh2D, topology.Torus2D, topology.Ring, topology.Crossbar} {
		m := core.NewCommModel(app)
		m.Network = kind
		m.Exact = true
		net, err := topology.New(kind, 64)
		if err != nil {
			return nil, err
		}
		pts := core.SweepSymmetric(m, b, core.PowerOfTwoRs(b.N))
		best, ok := core.Best(pts)
		if !ok {
			return nil, fmt.Errorf("empty sweep for %s", kind)
		}
		t.AddRow(kind.String(), report.FormatFloat(net.GrowComm(1)),
			f1(best.Speedup), f0(best.R))
	}
	doc.AddNote("A crossbar (single hop, full bandwidth) nearly removes the communication penalty; rings make it worse than the mesh — the Eq. 8 trend is topology-sensitive, as the paper anticipates by calling its assumptions optimistic.")
	return doc, nil
}

// AblStrategy compares the three merging-phase implementations both in the
// analytical cost model and with the native reduction executor.
func AblStrategy(_ context.Context, opt Options) (*report.Document, error) {
	doc := &report.Document{ID: "abl-strategy", Title: "Reduction-strategy ablation"}
	x := 4096 // reduction elements
	threadGrid := []int{1, 2, 4, 8, 16, 32}
	if opt.Quick {
		threadGrid = []int{1, 2, 4, 8}
	}
	t := doc.AddTable(fmt.Sprintf("Critical-path operations for x=%d reduction elements", x),
		append([]string{"strategy"}, intHeaders(threadGrid)...)...)
	for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
		row := []string{s.String()}
		for _, th := range threadGrid {
			row = append(row, itoa(reduction.PredictedCritical(s, th, x)))
		}
		t.AddRow(row...)
	}

	t2 := doc.AddTable("Measured native reduction cost (critical ops / communicated elements)",
		append([]string{"strategy"}, intHeaders(threadGrid)...)...)
	for _, s := range []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel} {
		row := []string{s.String()}
		for _, th := range threadGrid {
			pv := parallel.NewPrivatized(th, x)
			for id := 0; id < th; id++ {
				buf := pv.Buf(id)
				for i := range buf {
					buf[i] = float64(id + i)
				}
			}
			dst := make([]float64, x)
			cost, err := reduction.Reduce(s, pv, dst, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, itoa(cost.CriticalOps)+"/"+itoa(cost.CommElems))
		}
		t2.AddRow(row...)
	}
	doc.AddNote("Linear reduction grows its critical path with threads (Algorithm 1); tree grows logarithmically; parallel keeps computation flat but pays 2·(t-1)·x communication — exactly the trichotomy Section V-E models.")
	return doc, nil
}

// AblBudget scales the chip budget beyond the paper's 256 BCEs and tracks
// where the optimal symmetric core size moves for a high-overhead class.
func AblBudget(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "abl-budget", Title: "BCE-budget scaling ablation"}
	app := core.AppParams{Name: "non-emb-high-red", F: 0.99, FCon: 0.60, FOred: 0.80, Growth: core.GrowthLinear}
	base := core.AppParams{Name: "amdahl", F: 0.99, FCon: 0.60, FOred: 0.80, Growth: core.GrowthNone}
	t := doc.AddTable("Optimal symmetric design vs budget (f=0.99, fcon=60%, fored=80%)",
		"budget (BCEs)", "best r (extended)", "peak speedup (extended)", "best r (Amdahl)", "peak speedup (Amdahl)")
	for _, n := range []int{64, 128, 256, 512, 1024, 4096} {
		b := core.Budget{N: n}
		rs := core.PowerOfTwoRs(n)
		be, _ := core.Best(core.SweepSymmetric(app, b, rs))
		ba, _ := core.Best(core.SweepSymmetric(base, b, rs))
		t.AddRow(itoa(n),
			f0(be.R), f1(be.Speedup),
			f0(ba.R), f1(ba.Speedup))
	}
	doc.AddNote("With reduction overhead the optimal core keeps growing with the budget (the extra area buys capability, not parallelism), while the Amdahl model keeps favoring smaller cores — the paper's 'fewer but more capable cores' conclusion extrapolates beyond 256 BCEs.")
	return doc, nil
}
