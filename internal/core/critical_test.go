package core

import "testing"

func TestCriticalModelReducesToExtended(t *testing.T) {
	// With FCS = 0 the combined model must equal the extended model
	// exactly, on both architectures.
	app := classParams(0.99, 0.60, 0.80, GrowthLinear)
	m := NewCriticalModel(app, 0)
	b := DefaultBudget
	for _, r := range PowerOfTwoRs(b.N) {
		d := SymDesign{Budget: b, R: r}
		almost(t, m.SpeedupCMP(d), app.SpeedupCMP(d), 1e-9, "fcs=0 CMP")
	}
	for _, rl := range PowerOfTwoRs(128) {
		d := AsymDesign{Budget: b, RL: rl, R: 1}
		almost(t, m.SpeedupACMP(d), app.SpeedupACMP(d), 1e-9, "fcs=0 ACMP")
	}
}

func TestCriticalSectionsLowerSpeedup(t *testing.T) {
	app := classParams(0.999, 0.60, 0.10, GrowthLinear)
	b := DefaultBudget
	d := SymDesign{Budget: b, R: 1}
	prev := app.SpeedupCMP(d)
	for _, fcs := range []float64{0.01, 0.05, 0.2} {
		m := NewCriticalModel(app, fcs)
		s := m.SpeedupCMP(d)
		if s >= prev {
			t.Errorf("fcs=%.2f: speedup %.1f did not decrease (prev %.1f)", fcs, s, prev)
		}
		prev = s
	}
}

func TestCriticalContentionBernoulli(t *testing.T) {
	m := NewCriticalModel(classParams(0.99, 0.5, 0.5, GrowthLinear), 0.1)
	if got := m.contention(1); got != 0 {
		t.Errorf("single thread contention = %g", got)
	}
	// 1-(1-0.1)^(2-1) = 0.1
	almost(t, m.contention(2), 0.1, 1e-12, "two-thread contention")
	if m.contention(64) <= m.contention(4) {
		t.Error("contention should grow with threads")
	}
	if m.contention(1e6) > 1 {
		t.Error("contention must never exceed 1")
	}
	m.Contention = 0.5
	if m.contention(64) != 0.5 {
		t.Error("explicit contention should override the estimate")
	}
}

func TestCriticalModelValidation(t *testing.T) {
	good := NewCriticalModel(classParams(0.99, 0.5, 0.5, GrowthLinear), 0.1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := NewCriticalModel(classParams(0.99, 0.5, 0.5, GrowthLinear), 1.0)
	if err := bad.Validate(); err == nil {
		t.Error("fcs=1 should be rejected")
	}
	bad = NewCriticalModel(classParams(0.99, 0.5, 0.5, GrowthLinear), 0.1)
	bad.Contention = 2
	if err := bad.Validate(); err == nil {
		t.Error("contention>1 should be rejected")
	}
	bad = NewCriticalModel(classParams(0, 0.5, 0.5, GrowthLinear), 0.1)
	if err := bad.Validate(); err == nil {
		t.Error("invalid app params should be rejected")
	}
}

func TestACSLargeCoreHelpsContendedSections(t *testing.T) {
	// With heavy contention, an ACMP running critical sections on the
	// large core (ACS) must beat the best symmetric design built from unit
	// cores — the Suleman et al. result the paper discusses.
	app := classParams(0.99, 0.90, 0.10, GrowthLinear)
	m := NewCriticalModel(app, 0.10)
	b := DefaultBudget
	sym := m.SpeedupCMP(SymDesign{Budget: b, R: 1})
	acmp := m.SpeedupACMP(AsymDesign{Budget: b, RL: 64, R: 1})
	if acmp <= sym {
		t.Errorf("ACS ACMP (%.1f) should beat r=1 CMP (%.1f) under contention", acmp, sym)
	}
}

func TestCriticalPlusReductionCompound(t *testing.T) {
	// Both bottlenecks together must be at least as bad as either alone.
	base := classParams(0.99, 0.60, 0.80, GrowthLinear)
	b := DefaultBudget
	d := SymDesign{Budget: b, R: 4}
	onlyRed := base.SpeedupCMP(d)
	onlyCS := NewCriticalModel(base.WithGrowth(GrowthNone), 0.05).SpeedupCMP(d)
	both := NewCriticalModel(base, 0.05).SpeedupCMP(d)
	if both > onlyRed+1e-9 || both > onlyCS+1e-9 {
		t.Errorf("combined model (%.1f) exceeds a single-bottleneck model (red %.1f, cs %.1f)",
			both, onlyRed, onlyCS)
	}
}

func TestContentionShiftsOptimumTowardLargerCores(t *testing.T) {
	// Like reduction overhead, critical-section contention favors more
	// capable cores on a symmetric CMP (the serialized work runs faster).
	app := classParams(0.999, 0.90, 0.10, GrowthLinear)
	b := DefaultBudget
	no, _ := Best(SweepSymmetric(NewCriticalModel(app, 0), b, PowerOfTwoRs(b.N)))
	hi, _ := Best(SweepSymmetric(NewCriticalModel(app, 0.15), b, PowerOfTwoRs(b.N)))
	if hi.R < no.R {
		t.Errorf("contention should not shrink the optimal core: %.0f -> %.0f", no.R, hi.R)
	}
}
