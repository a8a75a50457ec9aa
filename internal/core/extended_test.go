package core

import (
	"math"
	"testing"
	"testing/quick"
)

// classParams builds Table III parameters directly.
func classParams(f, fcon, fored float64, g GrowthKind) AppParams {
	return AppParams{Name: "synthetic", F: f, FCon: fcon, FOred: fored, Growth: g}
}

// TestFigure4PaperNumbers checks the exact peak speedups the paper quotes
// for the symmetric design space (Section V-D1).
func TestFigure4PaperNumbers(t *testing.T) {
	b := DefaultBudget

	// Fig 4(c): f=0.999, moderate constant (60%), low overhead (10%),
	// linear growth: maximum speedup 104.5 at r = 4.
	app := classParams(0.999, 0.60, 0.10, GrowthLinear)
	pts := SweepSymmetric(app, b, PowerOfTwoRs(b.N))
	best, ok := Best(pts)
	if !ok {
		t.Fatal("empty sweep")
	}
	almost(t, best.Speedup, 104.5, 0.1, "Fig 4(c) peak speedup")
	almost(t, best.R, 4, 0, "Fig 4(c) peak r")

	// Fig 4(d): f=0.999, moderate constant, high overhead (80%): 67.1 at r=8.
	app = classParams(0.999, 0.60, 0.80, GrowthLinear)
	best, _ = Best(SweepSymmetric(app, b, PowerOfTwoRs(b.N)))
	almost(t, best.Speedup, 67.1, 0.1, "Fig 4(d) f=0.999 peak speedup")
	almost(t, best.R, 8, 0, "Fig 4(d) f=0.999 peak r")

	// Fig 4(d): f=0.99 linear: 36.2 at r=32.
	app = classParams(0.99, 0.60, 0.80, GrowthLinear)
	best, _ = Best(SweepSymmetric(app, b, PowerOfTwoRs(b.N)))
	almost(t, best.Speedup, 36.2, 0.1, "Fig 4(d) f=0.99 peak speedup")
	almost(t, best.R, 32, 0, "Fig 4(d) f=0.99 peak r")

	// Fig 4(b): f=0.99, high constant (90%), high overhead: 47.6.
	app = classParams(0.99, 0.90, 0.80, GrowthLinear)
	best, _ = Best(SweepSymmetric(app, b, PowerOfTwoRs(b.N)))
	almost(t, best.Speedup, 47.6, 0.2, "Fig 4(b) f=0.99 peak speedup")
}

// TestFigure5PaperNumbers checks the asymmetric design-space values quoted
// in Section V-D2.
func TestFigure5PaperNumbers(t *testing.T) {
	b := DefaultBudget
	rls := PowerOfTwoRs(b.N)

	// Fig 5(d): non-emb, high constant, high overhead; r=4 peak 64.2.
	app := classParams(0.99, 0.90, 0.80, GrowthLinear)
	best, _ := Best(SweepAsymmetric(app, b, rls, 4))
	almost(t, best.Speedup, 64.2, 0.7, "Fig 5(d) r=4 peak")

	// Fig 5(h): non-emb, moderate constant, high overhead.
	app = classParams(0.99, 0.60, 0.80, GrowthLinear)
	best, _ = Best(SweepAsymmetric(app, b, rls, 1))
	almost(t, best.Speedup, 22.6, 0.3, "Fig 5(h) r=1 peak")
	best, _ = Best(SweepAsymmetric(app, b, rls, 4))
	almost(t, best.Speedup, 43.3, 0.7, "Fig 5(h) r=4 peak")
}

// TestGrowthNoneMatchesHillMarty: with a constant serial section the
// extended model must reduce exactly to Hill & Marty.
func TestGrowthNoneMatchesHillMarty(t *testing.T) {
	b := DefaultBudget
	app := classParams(0.99, 0.60, 0.80, GrowthNone)
	for _, r := range PowerOfTwoRs(b.N) {
		d := SymDesign{Budget: b, R: r}
		got := app.SpeedupCMP(d)
		want := HillMartyCMP(app.F, d)
		almost(t, got, want, 1e-9, "GrowthNone == HillMarty CMP")
	}
	for _, rl := range PowerOfTwoRs(128) {
		d := AsymDesign{Budget: b, RL: rl, R: 1}
		got := app.SpeedupACMP(d)
		want := HillMartyACMP(app.F, d)
		almost(t, got, want, 1e-9, "GrowthNone == HillMarty ACMP")
	}
}

func TestSerialTimeAtOneCore(t *testing.T) {
	for _, app := range TableIIApps() {
		s := app.SerialTime(1)
		almost(t, s, app.SerialFraction(), 1e-12, app.Name+" S(1) == s")
		almost(t, app.SerialGrowthFactor(1), 1, 1e-12, app.Name+" growth factor at 1 core")
	}
}

func TestSerialGrowthLinearSlope(t *testing.T) {
	// For kmeans (fcon=0.57, fored=0.72) the normalized serial time at p
	// cores is fcon + fred*(1-fored) + fred*fored*p = 0.6904 + 0.3096*p.
	app := KMeansParams
	for _, p := range []float64{1, 2, 4, 8, 16} {
		want := 0.57 + 0.43*0.28 + 0.43*0.72*p
		if p == 1 {
			want = 1
		}
		almost(t, app.SerialGrowthFactor(p), want, 1e-9, "kmeans serial growth")
	}
}

// TestExtendedBelowAmdahl: for any growing overhead the extended model can
// never predict more speedup than the constant-serial-section model.
func TestExtendedBelowAmdahl(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	b := DefaultBudget
	pred := func(fr, cr, or uint8, rIdx uint8, lin bool) bool {
		f := 0.9 + float64(fr)/2560.0 // [0.9, ~0.9996]
		fcon := float64(cr) / 255
		fored := float64(or) / 255
		g := GrowthLog
		if lin {
			g = GrowthLinear
		}
		app := classParams(f, fcon, fored, g)
		rs := PowerOfTwoRs(b.N)
		r := rs[int(rIdx)%len(rs)]
		d := SymDesign{Budget: b, R: r}
		ext := app.SpeedupCMP(d)
		base := app.WithGrowth(GrowthNone).SpeedupCMP(d)
		return ext <= base+1e-9 && ext > 0
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

// TestOverheadShiftsPeakTowardLargerCores reproduces the qualitative claim
// of Section V-D1: increasing fored moves the optimal r upward (fewer, more
// capable cores) and lowers the peak speedup.
func TestOverheadShiftsPeakTowardLargerCores(t *testing.T) {
	b := DefaultBudget
	low := classParams(0.999, 0.60, 0.10, GrowthLinear)
	high := classParams(0.999, 0.60, 0.80, GrowthLinear)
	bl, _ := Best(SweepSymmetric(low, b, PowerOfTwoRs(b.N)))
	bh, _ := Best(SweepSymmetric(high, b, PowerOfTwoRs(b.N)))
	if bh.R <= bl.R {
		t.Errorf("high overhead should prefer larger cores: got r=%g vs r=%g", bh.R, bl.R)
	}
	if bh.Speedup >= bl.Speedup {
		t.Errorf("high overhead should lower peak speedup: got %g vs %g", bh.Speedup, bl.Speedup)
	}
}

// TestLogGrowthEmbarrassinglyParallelPrefersSmallCores checks the Section
// V-D1 observation that with logarithmic growth, embarrassingly parallel
// applications peak at the smallest cores.
func TestLogGrowthEmbarrassinglyParallelPrefersSmallCores(t *testing.T) {
	b := DefaultBudget
	app := classParams(0.999, 0.90, 0.10, GrowthLog)
	best, _ := Best(SweepSymmetric(app, b, PowerOfTwoRs(b.N)))
	if best.R != 1 {
		t.Errorf("log growth, emb. parallel: expected peak at r=1, got r=%g", best.R)
	}
}

// TestACMPAdvantageShrinksWithOverhead reproduces the headline ACMP result:
// for the moderate-constant high-overhead class the ACMP advantage over the
// best CMP is small or negative, while for low overhead it is large.
func TestACMPAdvantageShrinksWithOverhead(t *testing.T) {
	b := DefaultBudget
	ratio := func(app AppParams) float64 {
		bestCMP, _ := Best(SweepSymmetric(app, b, PowerOfTwoRs(b.N)))
		bestACMP := 0.0
		for _, r := range []float64{1, 4, 16} {
			if p, ok := Best(SweepAsymmetric(app, b, PowerOfTwoRs(b.N), r)); ok && p.Speedup > bestACMP {
				bestACMP = p.Speedup
			}
		}
		return bestACMP / bestCMP.Speedup
	}
	low := ratio(classParams(0.99, 0.60, 0.10, GrowthLinear))
	high := ratio(classParams(0.99, 0.60, 0.80, GrowthLinear))
	if high >= low {
		t.Errorf("ACMP advantage should shrink with overhead: low=%.2f high=%.2f", low, high)
	}
	if high > 1.35 {
		t.Errorf("high-overhead ACMP advantage should be limited, got %.2fx", high)
	}
}

func TestEqualPerfCMPPeaks(t *testing.T) {
	// Figure 3: with reduction overhead, speedup peaks well below 256 cores
	// for kmeans, while the Amdahl baseline is still rising at 256.
	p, peak := PeakCoreCount(KMeansParams, 256)
	if p >= 256 {
		t.Errorf("kmeans extended model should peak below 256 cores, got %d", p)
	}
	if peak <= 1 {
		t.Errorf("kmeans peak speedup should exceed 1, got %g", peak)
	}
	amdahl := SpeedupCurve(KMeansParams.WithGrowth(GrowthNone), []int{128, 256})
	if amdahl[1] <= amdahl[0] {
		t.Errorf("Amdahl baseline should still rise at 256 cores")
	}
}

func TestPredictedSerialGrowthMonotone(t *testing.T) {
	cores := []int{1, 2, 4, 8, 16}
	for _, app := range TableIIApps() {
		g := make([]float64, len(cores))
		for i, p := range cores {
			g[i] = app.SerialGrowthFactor(float64(p))
		}
		for i := 1; i < len(g); i++ {
			if g[i] < g[i-1] {
				t.Errorf("%s: serial growth not monotone: %v", app.Name, g)
			}
		}
		if g[0] != 1 {
			t.Errorf("%s: growth at 1 core should be 1, got %g", app.Name, g[0])
		}
	}
}

func TestValidateAppParams(t *testing.T) {
	good := classParams(0.99, 0.5, 0.5, GrowthLinear)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []AppParams{
		classParams(0, 0.5, 0.5, GrowthLinear),
		classParams(1.2, 0.5, 0.5, GrowthLinear),
		classParams(0.99, -0.1, 0.5, GrowthLinear),
		classParams(0.99, 0.5, 3.5, GrowthLinear),
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestTableIIIClasses(t *testing.T) {
	cls := TableIIIClasses()
	if len(cls) != 8 {
		t.Fatalf("Table III should have 8 classes, got %d", len(cls))
	}
	seen := map[string]bool{}
	for _, c := range cls {
		if err := c.Params.Validate(); err != nil {
			t.Errorf("class %s invalid: %v", c.Label(), err)
		}
		if seen[c.Label()] {
			t.Errorf("duplicate class %s", c.Label())
		}
		seen[c.Label()] = true
	}
	if c := cls[0]; c.Label() != "emb/high-constant/low-reduction" || c.Params.F != 0.999 || c.Params.FCon != 0.90 {
		t.Errorf("first Table III class = %+v", c)
	}
}

func TestGrowthFunctions(t *testing.T) {
	if GrowthLinear.Grow(64) != 64 {
		t.Errorf("linear grow(64) != 64")
	}
	almost(t, GrowthLog.Grow(64), 6, 1e-12, "log grow(64)")
	if GrowthNone.Grow(64) != 1 {
		t.Errorf("none grow(64) != 1")
	}
	for _, g := range []GrowthKind{GrowthNone, GrowthLinear, GrowthLog} {
		if g.Grow(1) != 1 {
			t.Errorf("%s grow(1) != 1", g)
		}
		if g.Grow(0.5) != 1 {
			t.Errorf("%s grow(<1) != 1", g)
		}
	}
}

func TestParseGrowth(t *testing.T) {
	for _, g := range []GrowthKind{GrowthNone, GrowthLinear, GrowthLog} {
		back, err := ParseGrowth(g.String())
		if err != nil || back != g {
			t.Errorf("ParseGrowth(%q) = %v, %v", g.String(), back, err)
		}
	}
	if _, err := ParseGrowth("cubic"); err == nil {
		t.Error("ParseGrowth should reject unknown names")
	}
}

func TestOptimalSearchMatchesGrid(t *testing.T) {
	b := DefaultBudget
	app := classParams(0.999, 0.60, 0.10, GrowthLinear)
	opt := OptimalSymmetricR(app, b, 1e-4)
	grid, _ := Best(SweepSymmetric(app, b, PowerOfTwoRs(b.N)))
	if opt.Speedup < grid.Speedup-1e-6 {
		t.Errorf("continuous optimum %.2f below grid best %.2f", opt.Speedup, grid.Speedup)
	}
	if math.Abs(math.Log2(opt.R)-math.Log2(grid.R)) > 1.01 {
		t.Errorf("continuous optimum r=%.2f too far from grid r=%.0f", opt.R, grid.R)
	}
}

func TestCoreCountHelpers(t *testing.T) {
	d := DoublingCoreCounts(16)
	want := []int{1, 2, 4, 8, 16}
	if len(d) != len(want) {
		t.Fatalf("DoublingCoreCounts(16) = %v", d)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("DoublingCoreCounts(16) = %v", d)
		}
	}
}
