package experiments

import (
	"context"
	"fmt"

	"mergescale/internal/core"
	"mergescale/internal/report"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
)

// contendAlphas is the zipf-skew grid the contended experiments sweep:
// near-uniform, the ddtxn-style moderate default, and hot-key-dominated.
var contendAlphas = []float64{1.1, 1.5, 2.0}

// contendWorkload builds the contended workload for one (mode, alpha)
// sweep point. Deliberately NOT part of workloadSet/configFingerprint:
// adding it there would shift every existing experiment's golden cache key
// and orphan warm disk caches. The contend parameters reach the cache keys
// through SimRunKey's Params instead.
func contendWorkload(mode contend.Mode, alpha float64) *contend.Contend {
	w := contend.New()
	w.Cfg.Mode = mode
	w.Cfg.Alpha = alpha
	return w
}

// contendScale is the trace divisor for the contended sweeps. It is
// deliberately gentler than simScale: the split-mode reconciliation
// costs p × Keys per round regardless of trace length, so dividing the
// quick trace by 16 (as simScale does) would leave a merge-dominated
// run whose divergence says nothing about the model — only about the
// shrink. Quick mode already runs on a dataset an eighth the size.
func contendScale(opt Options) int {
	if opt.Quick {
		return 2
	}
	return 1
}

// contendDoc sweeps zipf alpha × core count for one execution mode and
// reports measured (simulated) speedup, the analytic model's prediction,
// and the divergence between them, with the MESI hot-line statistics that
// explain it. The model parameters are extracted from the mode's own
// simulated profiles — the paper's methodology — so any divergence is the
// model's blind spot, not a fitting artifact: in joined mode the
// coherence storm lives inside the parallel phase, where the model
// assumes perfect division.
func contendDoc(ctx context.Context, opt Options, id, title string, mode contend.Mode) (*report.Document, error) {
	doc := &report.Document{ID: id, Title: title}
	cores := simCoreCounts(opt)
	scale := contendScale(opt)
	maxP := cores[len(cores)-1]

	t := doc.AddTable(fmt.Sprintf("Speedup vs cores (%s mode) — measured, model, divergence", mode),
		append([]string{"series"}, intHeaders(cores)...)...)
	ch := doc.AddChart(fmt.Sprintf("Contend (%s) — measured vs model", mode), "cores", "speedup", true)
	mesi := doc.AddTable(fmt.Sprintf("MESI traffic at p=%d (%s mode)", maxP, mode),
		"alpha", "invalidations", "hot-line inv", "hot-line share %", "c2c transfers", "sharer peak")

	worst := 0.0
	worstAlpha := 0.0
	for _, alpha := range contendAlphas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := contendWorkload(mode, alpha)
		ds, err := datasetFor(w, opt)
		if err != nil {
			return nil, err
		}
		cfgs := make([]sim.Config, len(cores))
		for i, p := range cores {
			cfgs[i] = sim.DefaultConfig(p)
		}
		runs, err := workload.SimRuns(ctx, opt.Engine, w, ds, cfgs, scale)
		if err != nil {
			return nil, fmt.Errorf("contend alpha=%g: %w", alpha, err)
		}
		profiles := make([]*trace.Profile, len(runs))
		for i, r := range runs {
			if profiles[i], err = r.Profile(); err != nil {
				return nil, fmt.Errorf("contend alpha=%g p=%d: %w", alpha, r.Cores, err)
			}
		}
		app, err := trace.Extract(profiles, trace.ExtractOptions{Growth: core.GrowthLinear})
		if err != nil {
			return nil, fmt.Errorf("contend alpha=%g: %w", alpha, err)
		}

		base := runs[0].Cycles
		label := "alpha=" + f1(alpha)
		rowM := []string{label + " measured"}
		rowP := []string{label + " model"}
		rowD := []string{label + " divergence %"}
		xs := make([]float64, 0, len(cores))
		ms := make([]float64, 0, len(cores))
		ps := make([]float64, 0, len(cores))
		for i, p := range cores {
			measured := float64(base) / float64(runs[i].Cycles)
			predicted := core.EqualPerfCMP(app, p)
			div := (predicted - measured) / measured * 100
			rowM = append(rowM, f2(measured))
			rowP = append(rowP, f2(predicted))
			rowD = append(rowD, f1(div))
			xs = append(xs, float64(p))
			ms = append(ms, measured)
			ps = append(ps, predicted)
			if d := abs(div); d > worst {
				worst = d
				worstAlpha = alpha
			}
		}
		t.AddRow(rowM...)
		t.AddRow(rowP...)
		t.AddRow(rowD...)
		ch.Series = append(ch.Series,
			report.Series{Name: label + " measured", X: xs, Y: ms},
			report.Series{Name: label + " model", X: xs, Y: ps})

		c := runs[len(runs)-1].Counters
		share := 0.0
		if c.Invalidations > 0 {
			share = float64(c.HotLineInvalidations) / float64(c.Invalidations) * 100
		}
		mesi.AddRow(f1(alpha),
			itoa(int(c.Invalidations)), itoa(int(c.HotLineInvalidations)),
			f1(share), itoa(int(c.C2CTransfers)), itoa(int(c.SharerPeak)))
	}

	if mode == contend.Joined {
		doc.AddNote("Worst divergence %.1f%% at alpha=%s: the extended model fits f/fcon/fored from phase times, but joined-mode contention serializes inside the parallel phase via hot-line invalidations — traffic no term of the model sees, so it overpredicts speedup as skew grows.", worst, f1(worstAlpha))
	} else {
		doc.AddNote("Worst divergence %.1f%% at alpha=%s: split-phase execution privatizes updates and pays a cores × keys merge at phase boundaries — a growing reduction the fored term models, keeping prediction an order of magnitude closer than joined mode. The residual is round-start coherence warmup (partials invalidated by the previous merge) that no model term sees.", worst, f1(worstAlpha))
	}
	return doc, nil
}

// ExtContend is the joined-mode contended sweep: all workers update shared
// zipf-skewed hot keys in place, the regime where the analytic model is
// quantifiably wrong.
func ExtContend(ctx context.Context, opt Options) (*report.Document, error) {
	return contendDoc(ctx, opt, "ext-contend",
		"Contended zipf workload: measured vs model (joined)", contend.Joined)
}

// ExtContendSplit is the split-mode counterpart: per-core privatized state
// reconciled at phase boundaries (ddtxn/Doppel-style), which converts the
// coherence storm into a growing merging phase the model was built for.
func ExtContendSplit(ctx context.Context, opt Options) (*report.Document, error) {
	return contendDoc(ctx, opt, "ext-contend-split",
		"Contended zipf workload: measured vs model (split)", contend.Split)
}
