package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"mergescale/internal/core"
	"mergescale/internal/report"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
)

// Fig2a reproduces the application-scalability plot: simulated speedup up
// to 16 cores for the three workloads.
func Fig2a(ctx context.Context, opt Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig2a", Title: "Application scalability (simulation)"}
	cores := simCoreCounts(opt)
	t := doc.AddTable("Fig 2(a) — simulated speedup vs cores", append([]string{"Application"}, intHeaders(cores)...)...)
	ch := doc.AddChart("Fig 2(a) — speedup", "cores", "speedup", true)
	for _, w := range workloadSet(opt) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds, err := datasetFor(w, opt)
		if err != nil {
			return nil, err
		}
		sp, err := workload.SimSpeedupCurve(ctx, opt.Engine, w, ds, cores, simScale(opt))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		row := make([]string, 0, len(cores)+1)
		row = append(row, w.Name())
		xs := make([]float64, 0, len(cores))
		ys := make([]float64, 0, len(cores))
		for _, c := range cores {
			row = append(row, f2(sp[c]))
			xs = append(xs, float64(c))
			ys = append(ys, sp[c])
		}
		t.AddRow(row...)
		ch.Series = append(ch.Series, report.Series{Name: w.Name(), X: xs, Y: ys})
	}
	doc.AddNote("Paper: kmeans and fuzzy scale close to 16 at 16 cores; hop peaks around 13.5 (tree-construction kernel).")
	return doc, nil
}

// serialGrowthDoc is the shared implementation of Fig 2(b) (simulation) and
// Fig 2(c) (native).
func serialGrowthDoc(ctx context.Context, id, title string, opt Options, native bool) (*report.Document, error) {
	doc := &report.Document{ID: id, Title: title}
	var grid []int
	if native {
		grid = nativeThreadCounts(opt)
	} else {
		grid = simCoreCounts(opt)
	}
	t := doc.AddTable(title+" — serial section time normalized to 1 core",
		append([]string{"Application"}, intHeaders(grid)...)...)
	ch := doc.AddChart(title, "cores", "normalized serial time", true)
	for _, w := range workloadSet(opt) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds, err := datasetFor(w, opt)
		if err != nil {
			return nil, err
		}
		var profiles []*trace.Profile
		if native {
			profiles, err = workload.NativeProfiles(ctx, opt.Engine, w, ds, grid, opt.UseDuration)
		} else {
			profiles, err = workload.SimProfiles(ctx, opt.Engine, w, ds, grid, simScale(opt))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		threads, norm, err := trace.GrowthSeries(profiles, native && opt.UseDuration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		row := make([]string, 0, len(threads)+1)
		row = append(row, w.Name())
		xs := make([]float64, 0, len(threads))
		ys := make([]float64, 0, len(threads))
		for i, th := range threads {
			row = append(row, f2(norm[i]))
			xs = append(xs, float64(th))
			ys = append(ys, norm[i])
		}
		t.AddRow(row...)
		ch.Series = append(ch.Series, report.Series{Name: w.Name(), X: xs, Y: ys})
	}
	doc.AddNote("Paper finding: serial time grows significantly with cores for all three applications instead of staying constant.")
	return doc, nil
}

// Fig2b reproduces the simulated serial-section growth.
func Fig2b(ctx context.Context, opt Options) (*report.Document, error) {
	return serialGrowthDoc(ctx, "fig2b", "Serial section growth (simulation)", opt, false)
}

// Fig2c reproduces the native ("real hardware") validation of the growth.
func Fig2c(ctx context.Context, opt Options) (*report.Document, error) {
	return serialGrowthDoc(ctx, "fig2c", "Serial behavior validation (native)", opt, true)
}

// Fig2d reproduces the model-accuracy plot: model-predicted over measured
// serial-section growth.
func Fig2d(ctx context.Context, opt Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig2d", Title: "Model accuracy (model / simulation)"}
	grid := simCoreCounts(opt)
	t := doc.AddTable("Fig 2(d) — predicted/measured serial time",
		append([]string{"Application"}, intHeaders(grid)...)...)
	worst := 0.0
	for _, w := range workloadSet(opt) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds, err := datasetFor(w, opt)
		if err != nil {
			return nil, err
		}
		profiles, err := workload.SimProfiles(ctx, opt.Engine, w, ds, grid, simScale(opt))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		ap, err := trace.Extract(profiles, trace.ExtractOptions{Growth: core.GrowthLinear})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		_, ratio, err := trace.ModelAccuracy(ap, profiles, false)
		if err != nil {
			return nil, err
		}
		row := make([]string, 0, len(ratio)+1)
		row = append(row, w.Name())
		for _, r := range ratio {
			row = append(row, f3(r))
			if dev := abs(r - 1); dev > worst {
				worst = dev
			}
		}
		t.AddRow(row...)
	}
	// The paper's bound holds for the full-size run, where
	// TestFig2dPaperBound gates every ratio to [0.82, 1.14]; -quick data
	// sets are too small for the linear growth fit and exceed it. The note's
	// text is part of every rendering's bytes, so it stays as it is.
	doc.AddNote("Worst deviation %.1f%%; the paper reports at most 14%% over- and 18%% under-estimation, i.e. the simple linear extension tracks the growth closely.", worst*100)
	return doc, nil
}

// Fig3 compares scalability predictions with and without reduction
// overhead for the Table II applications, out to 256 cores.
func Fig3(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig3", Title: "Scalability prediction using different models"}
	cores := core.DoublingCoreCounts(256)
	for _, app := range core.TableIIApps() {
		t := doc.AddTable(fmt.Sprintf("Fig 3 — %s (f=%.5f)", app.Name, app.F),
			append([]string{"model"}, intHeaders(cores)...)...)
		ext := core.SpeedupCurve(app, cores)
		amd := core.SpeedupCurve(app.WithGrowth(core.GrowthNone), cores)
		rowE := make([]string, 0, len(cores)+1)
		rowE = append(rowE, "with reduction overhead")
		rowA := make([]string, 0, len(cores)+1)
		rowA = append(rowA, "Amdahl (constant serial)")
		ch := doc.AddChart("Fig 3 — "+app.Name, "cores", "speedup", true)
		xs := make([]float64, 0, len(cores))
		ye := make([]float64, 0, len(cores))
		ya := make([]float64, 0, len(cores))
		for i, c := range cores {
			rowE = append(rowE, f1(ext[i]))
			rowA = append(rowA, f1(amd[i]))
			xs = append(xs, float64(c))
			ye = append(ye, ext[i])
			ya = append(ya, amd[i])
		}
		t.AddRow(rowE...)
		t.AddRow(rowA...)
		ch.Series = append(ch.Series,
			report.Series{Name: "extended", X: xs, Y: ye},
			report.Series{Name: "amdahl", X: xs, Y: ya})
		peakP, peakS := core.PeakCoreCount(app, 256)
		doc.AddNote(app.Name + ": extended model peaks at " + strconv.Itoa(peakP) + " cores (speedup " + f1(peakS) + "); Amdahl still rising at 256 (" + f1(amd[len(amd)-1]) + ").")
	}
	return doc, nil
}

// fig4Panels describes the four symmetric-CMP panels.
var fig4Panels = []struct {
	title      string
	fcon, ford float64
	paperNote  string
}{
	{"(a) high constant, low reduction overhead", 0.90, 0.10, ""},
	{"(b) high constant, high reduction overhead", 0.90, 0.80, "paper peak 47.6 for f=0.99"},
	{"(c) moderate constant, low reduction overhead", 0.60, 0.10, "paper peak 104.5 at r=4 for (0.999, Linear)"},
	{"(d) moderate constant, high reduction overhead", 0.60, 0.80, "paper peaks 67.1 at r=8 (f=0.999) and 36.2 at r=32 (f=0.99)"},
}

// Fig4 sweeps the symmetric design space for the Table III classes with
// linear and logarithmic growth functions: 16 series (4 panels × 4
// parameterizations), each a plain call to the closed-form model.
func Fig4(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig4", Title: "Scalability on symmetric CMPs"}
	b := core.DefaultBudget
	rs := core.PowerOfTwoRs(b.N)
	headers := append([]string{"series"}, floatHeaders(rs)...)
	for _, panel := range fig4Panels {
		t := doc.AddTable("Fig 4"+panel.title, headers...)
		ch := doc.AddChart("Fig 4"+panel.title, "r (BCEs per core)", "speedup", true)
		for _, f := range []float64{0.999, 0.99} {
			for _, g := range []core.GrowthKind{core.GrowthLinear, core.GrowthLog} {
				app := core.AppParams{Name: "class", F: f, FCon: panel.fcon, FOred: panel.ford, Growth: g}
				pts := core.SweepSymmetric(app, b, rs)
				row := make([]string, 0, len(rs)+1)
				row = append(row, "f="+f3(f)+" "+g.String())
				xs := make([]float64, 0, len(rs))
				ys := make([]float64, 0, len(rs))
				for _, p := range pts {
					row = append(row, f1(p.Speedup))
					xs = append(xs, p.R)
					ys = append(ys, p.Speedup)
				}
				t.AddRow(row...)
				ch.Series = append(ch.Series, report.Series{Name: row[0], X: xs, Y: ys})
				if best, ok := core.Best(pts); ok {
					doc.AddNote("Fig 4" + panel.title[:3] + " " + row[0] + ": peak " + f1(best.Speedup) + " at r=" + f0(best.R))
				}
			}
		}
		if panel.paperNote != "" {
			doc.AddNote("Fig 4" + panel.title[:3] + ": " + panel.paperNote)
		}
	}
	return doc, nil
}

// fig5Panels describes the eight asymmetric-CMP panels in paper order.
var fig5Panels = []struct {
	title      string
	f          float64
	fcon, ford float64
	paperNote  string
}{
	{"(a) emb., high constant, low overhead", 0.999, 0.90, 0.10, ""},
	{"(b) non-emb., high constant, low overhead", 0.99, 0.90, 0.10, ""},
	{"(c) emb., high constant, high overhead", 0.999, 0.90, 0.80, ""},
	{"(d) non-emb., high constant, high overhead", 0.99, 0.90, 0.80, "paper: ACMP peak 64.2 (r=4) vs CMP 47.6"},
	{"(e) emb., moderate constant, low overhead", 0.999, 0.60, 0.10, ""},
	{"(f) non-emb., moderate constant, low overhead", 0.99, 0.60, 0.10, ""},
	{"(g) emb., moderate constant, high overhead", 0.999, 0.60, 0.80, ""},
	{"(h) non-emb., moderate constant, high overhead", 0.99, 0.60, 0.80, "paper: r=1 peak 22.6; r=4 peak 43.3 vs CMP 36.2"},
}

// Fig5 sweeps the asymmetric design space: large-core size rl on the
// x-axis, one series per small-core size r ∈ {1, 4, 16}.
func Fig5(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig5", Title: "Scalability on asymmetric CMPs"}
	b := core.DefaultBudget
	rls := core.PowerOfTwoRs(b.N)
	headers := append([]string{"series"}, floatHeaders(rls)...)
	for _, panel := range fig5Panels {
		t := doc.AddTable("Fig 5"+panel.title, headers...)
		ch := doc.AddChart("Fig 5"+panel.title, "rl (BCEs of large core)", "speedup", true)
		app := core.AppParams{Name: "class", F: panel.f, FCon: panel.fcon, FOred: panel.ford, Growth: core.GrowthLinear}
		for _, r := range []float64{1, 4, 16} {
			pts := core.SweepAsymmetric(app, b, rls, r)
			row := make([]string, 0, len(rls)+1)
			row = append(row, "r="+strconv.FormatFloat(r, 'g', -1, 64))
			i := 0
			xs := make([]float64, 0, len(rls))
			ys := make([]float64, 0, len(rls))
			for _, rl := range rls {
				cell := "-"
				if i < len(pts) && pts[i].R == rl {
					cell = f1(pts[i].Speedup)
					xs = append(xs, pts[i].R)
					ys = append(ys, pts[i].Speedup)
					i++
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
			ch.Series = append(ch.Series, report.Series{Name: row[0], X: xs, Y: ys})
			if best, ok := core.Best(pts); ok {
				doc.AddNote("Fig 5" + panel.title[:3] + " " + row[0] + ": peak " + f1(best.Speedup) + " at rl=" + f0(best.R))
			}
		}
		if panel.paperNote != "" {
			doc.AddNote("Fig 5" + panel.title[:3] + ": " + panel.paperNote)
		}
	}
	return doc, nil
}

// Fig6 renders the reduction-fraction decomposition (a diagram in the
// paper) as a table for the Table II applications.
func Fig6(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig6", Title: "Reduction fraction split-up"}
	t := doc.AddTable("Fig 6 — serial fraction decomposition (shares of serial time)",
		"Application", "fcon", "fred", "fcred = fred·(1-fored)", "fored share = fred·fored", "fcomp = fred/2", "fcomm = fred/2")
	for _, app := range core.TableIIApps() {
		red := app.FRed()
		t.AddRow(app.Name,
			report.FormatFloat(app.FCon),
			report.FormatFloat(red),
			report.FormatFloat(red*(1-min(app.FOred, 1))),
			report.FormatFloat(red*min(app.FOred, 1)),
			report.FormatFloat(red/2),
			report.FormatFloat(red/2))
	}
	doc.AddNote("Figure 1 splits s into fcon + fred; Figure 6 re-splits fred into fcomp + fcomm for the communication model (Section V-E).")
	return doc, nil
}

// Fig7 evaluates the communication-aware model on the non-embarrassingly
// parallel, moderate-constant class with a parallel reduction over a 2D
// mesh.
func Fig7(_ context.Context, _ Options) (*report.Document, error) {
	doc := &report.Document{ID: "fig7", Title: "Scalability with communication-aware model"}
	b := core.DefaultBudget
	app := core.AppParams{Name: "non-emb-moderate", F: 0.99, FCon: 0.60, Growth: core.GrowthNone}
	m := core.NewCommModel(app)

	rs := core.PowerOfTwoRs(b.N)
	ta := doc.AddTable("Fig 7(a) — symmetric CMPs", append([]string{"series"}, floatHeaders(rs)...)...)
	pts := core.SweepSymmetric(m, b, rs)
	row := make([]string, 0, len(rs)+1)
	row = append(row, "mesh/parallel-reduction")
	ch := doc.AddChart("Fig 7(a) — symmetric", "r", "speedup", true)
	xs := make([]float64, 0, len(rs))
	ys := make([]float64, 0, len(rs))
	for _, p := range pts {
		row = append(row, f1(p.Speedup))
		xs = append(xs, p.R)
		ys = append(ys, p.Speedup)
	}
	ta.AddRow(row...)
	ch.Series = append(ch.Series, report.Series{Name: row[0], X: xs, Y: ys})
	if best, ok := core.Best(pts); ok {
		doc.AddNote("Fig 7(a): peak " + f1(best.Speedup) + " at r=" + f0(best.R) + " (paper: 46.6 at r=8; Amdahl would give 79.7)")
	}

	tb := doc.AddTable("Fig 7(b) — asymmetric CMPs", append([]string{"series"}, floatHeaders(rs)...)...)
	ch2 := doc.AddChart("Fig 7(b) — asymmetric", "rl", "speedup", true)
	bestAll := core.SweepPoint{}
	for _, r := range []float64{1, 4, 16} {
		apts := core.SweepAsymmetric(m, b, rs, r)
		arow := make([]string, 0, len(rs)+1)
		arow = append(arow, "r="+strconv.FormatFloat(r, 'g', -1, 64))
		i := 0
		axs := make([]float64, 0, len(rs))
		ays := make([]float64, 0, len(rs))
		for _, rl := range rs {
			cell := "-"
			if i < len(apts) && apts[i].R == rl {
				cell = f1(apts[i].Speedup)
				axs = append(axs, apts[i].R)
				ays = append(ays, apts[i].Speedup)
				i++
			}
			arow = append(arow, cell)
		}
		tb.AddRow(arow...)
		ch2.Series = append(ch2.Series, report.Series{Name: arow[0], X: axs, Y: ays})
		if best, ok := core.Best(apts); ok && best.Speedup > bestAll.Speedup {
			bestAll = best
		}
	}
	doc.AddNote("Fig 7(b): ACMP peak " + f1(bestAll.Speedup) + " (paper: 51.6; Amdahl's ACMP estimate was 162.3) — the ACMP advantage is diminished.")
	return doc, nil
}

func intHeaders(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = "p=" + strconv.Itoa(x)
	}
	return out
}

func floatHeaders(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = "r=" + strconv.FormatFloat(x, 'f', 0, 64)
	}
	return out
}

// f1/f2/f3 format table cells at fixed precision through strconv directly
// (byte-identical to fmt's %.1f/%.2f/%.3f, which delegate to the same
// routines) — the figure builders emit hundreds of cells per document.
func f0(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
func f5(v float64) string { return strconv.FormatFloat(v, 'f', 5, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string {
	var b [24]byte
	return string(appendF2(b[:0], v))
}
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// appendF2 appends v as strconv's 'f' format at precision 2, byte for
// byte. strconv sends every fixed-precision 'f' through its big-decimal
// path; below 1e4 this rounds v·100 to an integer instead. The error in
// x = |v|·100 is then at most about 1e-10, so unless x sits within 1e-6
// of a rounding tie, x and the exact |v|·100 round to the same integer.
// Near a tie, at 1e4 and above, and for NaN and ±Inf, strconv decides.
func appendF2(dst []byte, v float64) []byte {
	if a := math.Abs(v); a < 1e4 {
		x := a * 100
		fl := math.Floor(x)
		if d := x - fl - 0.5; d >= 1e-6 || d <= -1e-6 {
			n := int64(fl)
			if d > 0 {
				n++
			}
			if math.Signbit(v) {
				dst = append(dst, '-')
			}
			dst = strconv.AppendInt(dst, n/100, 10)
			c := n % 100
			return append(dst, '.', byte('0'+c/10), byte('0'+c%10))
		}
	}
	return strconv.AppendFloat(dst, v, 'f', 2, 64)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
