package core

// SweepPoint is one evaluated design point in a sweep.
type SweepPoint struct {
	R       float64 // per-core BCEs (symmetric) or large-core BCEs (asymmetric rl sweep)
	Speedup float64
}

// PowerOfTwoRs returns the sweep grid {1, 2, 4, ..., n} used on the x-axis
// of Figures 4, 5 and 7.
func PowerOfTwoRs(n int) []float64 {
	count := 0
	for r := 1; r <= n; r *= 2 {
		count++
	}
	rs := make([]float64, 0, count)
	for r := 1; r <= n; r *= 2 {
		rs = append(rs, float64(r))
	}
	return rs
}

// Model is a speedup model evaluable on both design kinds: the extended
// model (AppParams, Eqs. 4 and 5), the communication-aware model
// (CommModel, Section V-E) and the critical-section model (CriticalModel).
type Model interface {
	SpeedupCMP(SymDesign) float64
	SpeedupACMP(AsymDesign) float64
}

// SweepSymmetric evaluates m on symmetric designs across per-core sizes rs,
// skipping sizes that are no design under b.
func SweepSymmetric(m Model, b Budget, rs []float64) []SweepPoint {
	pts := make([]SweepPoint, 0, len(rs))
	for _, r := range rs {
		d := SymDesign{Budget: b, R: r}
		if !d.Valid() {
			continue
		}
		pts = append(pts, SweepPoint{R: r, Speedup: m.SpeedupCMP(d)})
	}
	return pts
}

// SweepAsymmetric evaluates m on asymmetric designs across large-core sizes
// rls, holding the small-core size fixed at r. Design points that leave
// fewer than one small core are skipped (e.g. rl = n).
func SweepAsymmetric(m Model, b Budget, rls []float64, r float64) []SweepPoint {
	pts := make([]SweepPoint, 0, len(rls))
	for _, rl := range rls {
		d := AsymDesign{Budget: b, RL: rl, R: r}
		if !d.Valid() {
			continue
		}
		pts = append(pts, SweepPoint{R: rl, Speedup: m.SpeedupACMP(d)})
	}
	return pts
}

// Best returns the sweep point with the highest speedup. The second return
// is false for an empty sweep.
func Best(pts []SweepPoint) (SweepPoint, bool) {
	if len(pts) == 0 {
		return SweepPoint{}, false
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Speedup > best.Speedup {
			best = p
		}
	}
	return best, true
}

// OptimalSymmetricR finds the continuous r maximizing the extended CMP
// speedup by golden-section search over [1, n]. The speedup is unimodal in
// r for all parameterizations used in the paper (verified by the property
// tests); the search refines to within tol BCEs.
func OptimalSymmetricR(app AppParams, b Budget, tol float64) SweepPoint {
	f := func(r float64) float64 {
		return app.SpeedupCMP(SymDesign{Budget: b, R: r})
	}
	r := goldenMax(f, 1, float64(b.N), tol)
	return SweepPoint{R: r, Speedup: f(r)}
}

// goldenMax performs golden-section search for the maximum of f on [lo,hi].
func goldenMax(f func(float64) float64, lo, hi, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-6
	}
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// PeakCoreCount returns the core count p ∈ [1, maxP] at which the
// equal-core extended model peaks, plus the peak speedup. Used to quantify
// the "speedup peaks at much lesser core count" result of Figure 3.
func PeakCoreCount(app AppParams, maxP int) (int, float64) {
	bestP, bestS := 1, 0.0
	for p := 1; p <= maxP; p++ {
		s := EqualPerfCMP(app, p)
		if s > bestS {
			bestP, bestS = p, s
		}
	}
	return bestP, bestS
}

// SpeedupCurve evaluates the equal-core extended model at each core count,
// producing the series plotted in Figure 3.
func SpeedupCurve(app AppParams, cores []int) []float64 {
	out := make([]float64, len(cores))
	for i, p := range cores {
		out[i] = EqualPerfCMP(app, p)
	}
	return out
}

// DoublingCoreCounts returns {1,2,4,...,max}.
func DoublingCoreCounts(max int) []int {
	var out []int
	for p := 1; p <= max; p *= 2 {
		out = append(out, p)
	}
	return out
}
