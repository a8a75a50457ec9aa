package core

import (
	"math"
	"testing"
	"testing/quick"

	"mergescale/internal/topology"
)

// TestFigure7PaperNumbers validates the communication-aware model against
// the two headline numbers of Section V-E: CMP peak 46.6 at r=8 and ACMP
// peak 51.6 (both for the non-embarrassingly-parallel, moderate-constant
// class with a parallel reduction on a 2D mesh).
func TestFigure7PaperNumbers(t *testing.T) {
	b := DefaultBudget
	app := classParams(0.99, 0.60, 0, GrowthNone) // fored unused by CommModel
	m := NewCommModel(app)

	pts := SweepSymmetric(m, b, PowerOfTwoRs(b.N))
	best, ok := Best(pts)
	if !ok {
		t.Fatal("empty comm sweep")
	}
	almost(t, best.Speedup, 46.6, 0.2, "Fig 7(a) CMP peak")
	almost(t, best.R, 8, 0, "Fig 7(a) CMP peak r")

	bestACMP := SweepPoint{}
	for _, r := range []float64{1, 4, 16} {
		if p, ok := Best(SweepAsymmetric(m, b, PowerOfTwoRs(b.N), r)); ok && p.Speedup > bestACMP.Speedup {
			bestACMP = p
		}
	}
	almost(t, bestACMP.Speedup, 51.6, 0.5, "Fig 7(b) ACMP peak")

	// Section V-E: the comm model's CMP estimate (46.6) is well below the
	// Amdahl estimate (79.7), and the ACMP advantage is diminished.
	if bestACMP.Speedup/best.Speedup > 1.2 {
		t.Errorf("comm model should diminish ACMP advantage, got %.2fx", bestACMP.Speedup/best.Speedup)
	}
}

func TestCommSerialPartsAtOneCore(t *testing.T) {
	app := classParams(0.99, 0.60, 0, GrowthNone)
	m := NewCommModel(app)
	// At one core there is no growth: serial fraction equals s.
	almost(t, m.SerialFraction(1), app.SerialFraction(), 1e-12, "comm serial at p=1")
}

func TestCommModelImplOrdering(t *testing.T) {
	// For the same parameters, serial time must order
	// parallel <= tree <= linear at any p > 2.
	app := classParams(0.99, 0.60, 0, GrowthNone)
	for _, p := range []float64{4, 16, 64, 256} {
		var vals []float64
		for _, impl := range []ReductionImpl{ReductionParallel, ReductionTree, ReductionLinear} {
			m := NewCommModel(app)
			m.Impl = impl
			vals = append(vals, m.SerialFraction(p))
		}
		if !(vals[0] <= vals[1]+1e-12 && vals[1] <= vals[2]+1e-12) {
			t.Errorf("p=%g: serial fractions not ordered parallel<=tree<=linear: %v", p, vals)
		}
	}
}

func TestGrowCompAtOneCore(t *testing.T) {
	for _, impl := range []ReductionImpl{ReductionLinear, ReductionTree, ReductionParallel} {
		if g := impl.GrowComp(1); g != 0 {
			t.Errorf("%s GrowComp(1) = %g, want 0", impl, g)
		}
	}
	if g := ReductionLinear.GrowComp(64); g != 63 {
		t.Errorf("linear GrowComp(64) = %g, want 63", g)
	}
	almost(t, ReductionTree.GrowComp(64), 5, 1e-12, "tree GrowComp(64)")
	if g := ReductionParallel.GrowComp(1 << 20); g != 0 {
		t.Errorf("parallel GrowComp should stay 0, got %g", g)
	}
}

func TestCommModelTopologyAblation(t *testing.T) {
	// A crossbar communicates in a single hop: its speedup should be at
	// least that of the mesh for every design point.
	app := classParams(0.99, 0.60, 0, GrowthNone)
	mesh := NewCommModel(app)
	xbar := NewCommModel(app)
	xbar.Network = topology.Crossbar
	b := DefaultBudget
	// Restrict to designs with at least 4 cores: below that the mesh
	// degenerates (a 2-core "mesh" is a single link, same as a crossbar)
	// and the sqrt-based closed forms are not meaningful.
	for _, r := range []float64{1, 4, 16, 64} {
		d := SymDesign{Budget: b, R: r}
		if d.Validate() != nil {
			continue
		}
		if xbar.SpeedupCMP(d) < mesh.SpeedupCMP(d)-1e-9 {
			t.Errorf("r=%g: crossbar slower than mesh", r)
		}
	}
}

func TestCommModelExactVsApprox(t *testing.T) {
	// The paper's sqrt(nc)/2 approximation and the exact Eq. 8 form differ
	// by at most ~1/(2 sqrt(nc)) relative; the model outputs must agree
	// within a few percent at practical core counts.
	app := classParams(0.99, 0.60, 0, GrowthNone)
	approx := NewCommModel(app)
	exact := NewCommModel(app)
	exact.Exact = true
	b := DefaultBudget
	for _, r := range []float64{1, 4, 16, 64} {
		d := SymDesign{Budget: b, R: r}
		a := approx.SpeedupCMP(d)
		e := exact.SpeedupCMP(d)
		if math.Abs(a-e)/e > 0.05 {
			t.Errorf("r=%g: exact %.2f vs approx %.2f differ by more than 5%%", r, e, a)
		}
	}
}

func TestCommSpeedupPositiveProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	b := DefaultBudget
	pred := func(fr, cr uint8, rIdx uint8, implIdx uint8) bool {
		f := 0.9 + float64(fr)/2560.0
		fcon := float64(cr) / 255
		app := classParams(f, fcon, 0, GrowthNone)
		m := NewCommModel(app)
		m.Impl = ReductionImpl(int(implIdx) % 3)
		rs := PowerOfTwoRs(b.N)
		r := rs[int(rIdx)%len(rs)]
		s := m.SpeedupCMP(SymDesign{Budget: b, R: r})
		// Positive, finite, and never better than the zero-comm bound.
		noComm := app.WithGrowth(GrowthNone).SpeedupCMP(SymDesign{Budget: b, R: r})
		return s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s) && s <= noComm+1e-9
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestReductionImplString(t *testing.T) {
	if ReductionLinear.String() != "linear" || ReductionTree.String() != "tree" || ReductionParallel.String() != "parallel" {
		t.Error("ReductionImpl String names wrong")
	}
}
