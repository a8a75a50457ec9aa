package core

import (
	"errors"
	"math"
)

// CriticalModel combines the merging-phase extension with a critical-
// section term in the spirit of Eyerman & Eeckhout (ISCA 2010), which the
// paper cites as orthogonal work that "can be combined along to improve
// accuracy of scalability prediction" (Section VI). The paper itself
// excludes critical sections because they measure below 0.004% for its
// workloads (Table II); this model covers applications where they matter.
//
// Decomposition: of the parallel fraction F, a share FCS executes inside
// critical sections. Contended critical-section work serializes; the rest
// of the parallel section scales with the parallel throughput. With
// contention probability pctn(p), the parallel term of Eq. 4 splits into
//
//	f·(1-fcs)/T  +  f·fcs·( (1-pctn)/T + pctn/perf(rcs) )
//
// where T is the design's parallel throughput in BCE-equivalents and rcs is
// the size of the core executing contended critical sections (the large
// core on an ACMP — the Suleman et al. ACS scheme — or a regular core on a
// CMP).
type CriticalModel struct {
	App AppParams
	// FCS is the critical-section share of the parallel fraction, [0,1).
	FCS float64
	// Contention overrides the contention probability when >= 0. When
	// negative, a Bernoulli approximation is used: the probability that at
	// least one of the other p-1 threads is inside a critical section,
	// 1-(1-FCS)^(p-1).
	Contention float64
}

// NewCriticalModel returns a model with the Bernoulli contention estimate.
func NewCriticalModel(app AppParams, fcs float64) CriticalModel {
	return CriticalModel{App: app, FCS: fcs, Contention: -1}
}

// Validate checks the model parameters.
func (m CriticalModel) Validate() error {
	if err := m.App.Validate(); err != nil {
		return err
	}
	if m.FCS < 0 || m.FCS >= 1 {
		return errors.New("core: FCS must be in [0,1)")
	}
	if m.Contention > 1 {
		return errors.New("core: contention probability above 1")
	}
	return nil
}

// contention returns the effective contention probability for p threads.
func (m CriticalModel) contention(p float64) float64 {
	if m.Contention >= 0 {
		return m.Contention
	}
	if p <= 1 {
		return 0
	}
	return 1 - math.Pow(1-m.FCS, p-1)
}

// SpeedupCMP evaluates the combined model on a symmetric design: the
// serialized critical-section work runs on an ordinary core of r BCEs.
func (m CriticalModel) SpeedupCMP(d SymDesign) float64 {
	p := d.Cores()
	pr := Perf(d.R)
	serial := m.App.SerialTime(p) / pr
	throughput := pr * p
	f := m.App.F
	pc := m.contention(p)
	parallel := f*(1-m.FCS)/throughput +
		f*m.FCS*((1-pc)/throughput+pc/pr)
	return 1 / (serial + parallel)
}

// SpeedupACMP evaluates the combined model on an asymmetric design with
// accelerated critical sections: contended critical sections migrate to
// the large core (Suleman et al.), like the serial and merging phases.
func (m CriticalModel) SpeedupACMP(d AsymDesign) float64 {
	p := d.SmallCores()
	prl := Perf(d.RL)
	serial := m.App.SerialTime(p) / prl
	throughput := Perf(d.R)*p + prl
	f := m.App.F
	pc := m.contention(p)
	parallel := f*(1-m.FCS)/throughput +
		f*m.FCS*((1-pc)/throughput+pc/prl)
	return 1 / (serial + parallel)
}
