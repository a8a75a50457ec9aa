package experiments

import (
	"context"
	"fmt"

	"mergescale/internal/core"
	"mergescale/internal/reduction"
	"mergescale/internal/report"
)

// ExtCritical evaluates the combined merging-phase + critical-section
// model — the combination the paper's related-work section proposes
// (Eyerman & Eeckhout's critical-section term alongside the growing
// reduction term).
func ExtCritical(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "ext-critical", Title: "Combined merging-phase + critical-section model"}
	b := core.DefaultBudget
	app := core.AppParams{Name: "non-emb-moderate", F: 0.99, FCon: 0.60, FOred: 0.80, Growth: core.GrowthLinear}
	rs := core.PowerOfTwoRs(b.N)

	t := doc.AddTable("Peak symmetric/asymmetric speedup vs critical-section share (f=0.99, fcon=60%, fored=80%)",
		"fcs", "best CMP r", "CMP peak", "best ACMP rl (r=4)", "ACMP peak", "ACMP gain")
	for _, fcs := range []float64{0, 0.01, 0.05, 0.10, 0.20} {
		m := core.NewCriticalModel(app, fcs)
		cmp, ok := core.Best(core.SweepSymmetric(m, b, rs))
		if !ok {
			return nil, fmt.Errorf("empty critical CMP sweep at fcs=%g", fcs)
		}
		acmp, ok := core.Best(core.SweepAsymmetric(m, b, rs, 4))
		if !ok {
			return nil, fmt.Errorf("empty critical ACMP sweep at fcs=%g", fcs)
		}
		t.AddRow(f2(fcs),
			f0(cmp.R), f1(cmp.Speedup),
			f0(acmp.R), f1(acmp.Speedup),
			f2(acmp.Speedup/cmp.Speedup)+"x")
	}
	doc.AddNote("Critical sections compound the merging-phase penalty; accelerated critical sections restore some ACMP advantage (Suleman et al.), but the reduction term still caps it — the two models compose as the paper's Section VI anticipates.")
	return doc, nil
}

// ExtLocking compares privatized (replicated) reductions against the
// locked shared-array techniques of Jin, Yang & Agrawal — the alternative
// implementation family the paper cites.
func ExtLocking(_ context.Context, opt Options) (*report.Document, error) {
	doc := &report.Document{ID: "ext-locking", Title: "Privatized vs locked reduction techniques"}
	threadGrid := []int{1, 2, 4, 8, 16, 32}
	if opt.Quick {
		threadGrid = []int{1, 2, 4, 8}
	}
	const updates = 4096

	t := doc.AddTable(fmt.Sprintf("Serialized operations per thread for %d updates", updates),
		append([]string{"technique"}, intHeaders(threadGrid)...)...)

	// Privatized replication: the serialized cost is the merge itself
	// (linear in threads).
	row := []string{"privatized + linear merge"}
	for _, th := range threadGrid {
		row = append(row, itoa(reduction.PredictedCritical(reduction.Linear, th, updates)))
	}
	t.AddRow(row...)
	row = []string{"privatized + tree merge"}
	for _, th := range threadGrid {
		row = append(row, itoa(reduction.PredictedCritical(reduction.Tree, th, updates)))
	}
	t.AddRow(row...)

	for _, blocks := range []int{1, 16, 256, updates} {
		row := []string{fmt.Sprintf("locked shared (%d locks)", blocks)}
		for _, th := range threadGrid {
			row = append(row, f0(reduction.LockingCost(th, blocks, updates)))
		}
		t.AddRow(row...)
	}
	doc.AddNote("Full locking (1 lock) serializes everything; fine-grained locking removes contention but costs one lock word per element — replication with a merging phase wins at the paper's cluster counts, which is why MineBench privatizes and why the merging phase exists at all.")
	return doc, nil
}
