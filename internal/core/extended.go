package core

// SpeedupCMP returns the extended symmetric-CMP speedup (Eq. 4): the serial
// term uses the growing serial time S(p) with p = n/r parallel cores, and
// the parallel term is the Hill & Marty term f·r/(perf(r)·n).
//
// With Growth = GrowthNone this reduces exactly to HillMartyCMP and is
// used as the "Amdahl's model" baseline in Figures 3 and 4.
func (a AppParams) SpeedupCMP(d SymDesign) float64 {
	pr := Perf(d.R)
	serial := a.SerialTime(d.Cores()) / pr
	parallel := a.F * d.R / (pr * float64(d.Budget.N))
	return 1 / (serial + parallel)
}

// SpeedupACMP returns the extended asymmetric-CMP speedup (Eq. 5): the
// serial section (including the merging phase) executes on the large core
// of rl BCEs, the parallel section on (n-rl)/r small cores assisted by the
// large core. The reduction overhead grows with the number of small cores,
// i.e. the number of partial results that must be merged.
func (a AppParams) SpeedupACMP(d AsymDesign) float64 {
	prl := Perf(d.RL)
	p := d.SmallCores()
	serial := a.SerialTime(p) / prl
	parallel := a.F / (Perf(d.R)*p + prl)
	return 1 / (serial + parallel)
}

// EqualPerfCMP returns the extended speedup on p identical unit cores (r=1,
// n=p): the form used for the scalability predictions of Figure 3, where
// the architecture is fixed at up to 256 baseline cores and only the core
// count varies.
func EqualPerfCMP(app AppParams, p int) float64 {
	if p < 1 {
		p = 1
	}
	serial := app.SerialTime(float64(p))
	parallel := app.F / float64(p)
	return 1 / (serial + parallel)
}
