package core

import "fmt"

// AppParams captures the per-application model parameters of Table II/III.
//
// F is the parallel fraction of single-core execution time. The remaining
// serial fraction s = 1-F splits into shares (of s, not of total time):
// FCon is the constant serial share, and the remainder 1-FCon is the
// reduction share FRed. Of the reduction share, FOred is the overhead share
// that grows with core count; 1-FOred is the constant reduction share fcred.
type AppParams struct {
	Name   string
	F      float64    // parallel fraction of total time, in (0,1]
	FCon   float64    // constant share of serial time, in [0,1]
	FOred  float64    // overhead share of the reduction part, in [0,1]
	Growth GrowthKind // how the overhead share grows with cores
}

// Validate reports whether the parameters are inside their legal domains.
func (a AppParams) Validate() error {
	if a.F <= 0 || a.F > 1 {
		return fmt.Errorf("core: F = %g outside (0,1]", a.F)
	}
	if a.FCon < 0 || a.FCon > 1 {
		return fmt.Errorf("core: FCon = %g outside [0,1]", a.FCon)
	}
	// Table II reports fored up to 155% for hop: the reduction overhead can
	// grow superlinearly, making the fitted share exceed 1. Allow a margin
	// above 1 but reject clearly unphysical values.
	if a.FOred < 0 || a.FOred > 3 {
		return fmt.Errorf("core: FOred = %g outside [0,3]", a.FOred)
	}
	return nil
}

// SerialFraction returns s = 1-F.
func (a AppParams) SerialFraction() float64 { return 1 - a.F }

// FRed returns the reduction share of serial time, 1-FCon.
func (a AppParams) FRed() float64 { return 1 - a.FCon }

// SerialTime returns the effective serial fraction S(p) of total single-core
// time when p parallel cores participate in the merging phase:
//
//	S(p) = s·( fcon + (1-fcon)·(1-fored) + (1-fcon)·fored·grow(p) )
//
// At p = 1 every growth function returns 1 and S(1) = s, matching the
// measured single-core serial time.
func (a AppParams) SerialTime(p float64) float64 {
	s := a.SerialFraction()
	red := a.FRed()
	return s * (a.FCon + red*(1-a.FOred) + red*a.FOred*a.Growth.Grow(p))
}

// SerialGrowthFactor returns S(p)/S(1), the normalized serial-section growth
// plotted in Figures 2(b) and 2(c). For applications with no serial section
// it returns 1.
func (a AppParams) SerialGrowthFactor(p float64) float64 {
	s1 := a.SerialTime(1)
	if s1 == 0 {
		return 1
	}
	return a.SerialTime(p) / s1
}

// WithGrowth returns a copy of the parameters using a different growth
// function; used to draw the Amdahl (constant) baseline curves.
func (a AppParams) WithGrowth(g GrowthKind) AppParams {
	a.Growth = g
	return a
}

// Table II of the paper: parameters measured for the MineBench clustering
// applications with default data sets. FCon/FOred are the percentages in the
// table expressed as fractions; kmeans and fuzzy follow a linear growth
// function, hop's overhead grows superlinearly in the paper but is modeled
// as linear (the paper's own analysis uses the linear function for all
// three).
var (
	KMeansParams = AppParams{Name: "kmeans", F: 0.99985, FCon: 0.57, FOred: 0.72, Growth: GrowthLinear}
	FuzzyParams  = AppParams{Name: "fuzzy", F: 0.99998, FCon: 0.65, FOred: 0.82, Growth: GrowthLinear}
	HopParams    = AppParams{Name: "hop", F: 0.999, FCon: 0.88, FOred: 1.55, Growth: GrowthLinear}
)

// TableIIApps lists the Table II applications in paper order.
func TableIIApps() []AppParams {
	return []AppParams{KMeansParams, FuzzyParams, HopParams}
}

// AppClass is one row of Table III: a synthetic application class in the
// three-dimensional categorization (parallelism, constant fraction,
// reduction overhead).
type AppClass struct {
	Parallelism string // "emb" or "non-emb"
	Constant    string // "high" or "moderate"
	Reduction   string // "low" or "high"
	Params      AppParams
}

// Label returns the class description used in figure captions.
func (c AppClass) Label() string {
	return fmt.Sprintf("%s/%s-constant/%s-reduction", c.Parallelism, c.Constant, c.Reduction)
}

// TableIIIClasses returns the eight application classes of Table III with
// f ∈ {0.999, 0.99}, fcon ∈ {90%, 60%}, fored ∈ {10%, 80%}.
func TableIIIClasses() []AppClass {
	mk := func(par string, f float64, con string, fcon float64, red string, fored float64) AppClass {
		return AppClass{
			Parallelism: par, Constant: con, Reduction: red,
			Params: AppParams{
				Name: par + "-" + con + "con-" + red + "red",
				F:    f, FCon: fcon, FOred: fored, Growth: GrowthLinear,
			},
		}
	}
	return []AppClass{
		mk("emb", 0.999, "high", 0.90, "low", 0.10),
		mk("non-emb", 0.99, "high", 0.90, "low", 0.10),
		mk("emb", 0.999, "moderate", 0.60, "low", 0.10),
		mk("non-emb", 0.99, "moderate", 0.60, "low", 0.10),
		mk("emb", 0.999, "high", 0.90, "high", 0.80),
		mk("non-emb", 0.99, "high", 0.90, "high", 0.80),
		mk("emb", 0.999, "moderate", 0.60, "high", 0.80),
		mk("non-emb", 0.99, "moderate", 0.60, "high", 0.80),
	}
}
