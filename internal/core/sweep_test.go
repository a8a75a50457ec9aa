package core

import (
	"math"
	"testing"
)

// TestSweepEveryModel runs both sweeps over every model: each returned
// point must be the model's own speedup at its design, bit for bit, and
// exactly the grid values that are valid designs must appear, in grid
// order. The grid straddles both validity edges (r below 1, r or rl past
// the budget, rl leaving less than one small core).
func TestSweepEveryModel(t *testing.T) {
	app := classParams(0.99, 0.6, 0.8, GrowthLinear)
	models := []struct {
		name string
		m    Model
	}{
		{"extended", app},
		{"comm", NewCommModel(app)},
		{"critical", NewCriticalModel(app, 0.05)},
	}
	b := DefaultBudget
	const smallR = 4
	grid := []float64{0.5, 1, 2, 3, 64, 251, 252, 253, 255, 256, 257}

	for _, tc := range models {
		var want []float64
		for _, r := range grid {
			if (SymDesign{Budget: b, R: r}).Valid() {
				want = append(want, r)
			}
		}
		checkSweep(t, tc.name+" symmetric", b, SweepSymmetric(tc.m, b, grid), want, func(r float64) float64 {
			return tc.m.SpeedupCMP(SymDesign{Budget: b, R: r})
		})

		want = want[:0]
		for _, rl := range grid {
			if (AsymDesign{Budget: b, RL: rl, R: smallR}).Valid() {
				want = append(want, rl)
			}
		}
		checkSweep(t, tc.name+" asymmetric", b, SweepAsymmetric(tc.m, b, grid, smallR), want, func(rl float64) float64 {
			return tc.m.SpeedupACMP(AsymDesign{Budget: b, RL: rl, R: smallR})
		})
	}
}

func checkSweep(t *testing.T, name string, b Budget, pts []SweepPoint, want []float64, speedup func(float64) float64) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: grid has no valid design", name)
	}
	if len(pts) != len(want) {
		t.Fatalf("%s: %d points, want %d (grid values %v)", name, len(pts), len(want), want)
	}
	for i, p := range pts {
		if p.R != want[i] {
			t.Errorf("%s: point %d at %g, want %g", name, i, p.R, want[i])
		}
		if math.Float64bits(p.Speedup) != math.Float64bits(speedup(p.R)) {
			t.Errorf("%s: speedup at %g = %v, model gives %v", name, p.R, p.Speedup, speedup(p.R))
		}
		if !(p.Speedup > 0 && p.Speedup <= float64(b.N)) {
			t.Errorf("%s: speedup at %g = %v, want in (0, %d]", name, p.R, p.Speedup, b.N)
		}
	}
}

// TestDesignValidMatchesValidate pins that Valid, the form both sweeps
// test, accepts exactly the finite designs Validate accepts.
func TestDesignValidMatchesValidate(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2, 3, 16, 256} {
		b := Budget{N: n}
		N := float64(n)
		sizes := []float64{0, 0.5, 1, 1.5, 2, 4, N - 1, N - 0.5, N, math.Nextafter(N, math.Inf(1)), N + 1}
		for _, r := range sizes {
			sym := SymDesign{Budget: b, R: r}
			if sym.Valid() != (sym.Validate() == nil) {
				t.Errorf("%+v: Valid %v, Validate %v", sym, sym.Valid(), sym.Validate())
			}
			rls := append([]float64{N - r, math.Nextafter(N-r, math.Inf(1))}, sizes...)
			for _, rl := range rls {
				asym := AsymDesign{Budget: b, RL: rl, R: r}
				if asym.Valid() != (asym.Validate() == nil) {
					t.Errorf("%+v: Valid %v, Validate %v", asym, asym.Valid(), asym.Validate())
				}
			}
		}
	}
}
