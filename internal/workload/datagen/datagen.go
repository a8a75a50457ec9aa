// Package datagen synthesizes the clustering data sets used by the
// workloads. MineBench ships fixed input files; since those are not
// redistributable here, we generate Gaussian-mixture data with the same
// shapes (N points, D dimensions, C generating clusters) as the paper's
// Table IV, from a fixed seed so every experiment is reproducible.
//
// The merging-phase work of the clustering kernels depends only on the
// shape parameters (threads × clusters × dimensions), not on the point
// values, so synthetic data preserves the behaviour the paper measures
// (see the substitution notes in DESIGN.md).
//
// Point values are drawn on first read (Dataset.Points), so paths that
// need only the shape never generate them.
package datagen

import (
	"errors"
	"fmt"
	"sync"

	"mergescale/internal/stats"
)

// Spec describes a synthetic data set.
type Spec struct {
	Label  string
	N      int     // number of points
	D      int     // dimensions
	C      int     // generating clusters
	Spread float64 // within-cluster standard deviation
	Seed   uint64  // PRNG seed
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.N < 1 || s.D < 1 || s.C < 1 {
		return fmt.Errorf("datagen: N/D/C must be positive, got %d/%d/%d", s.N, s.D, s.C)
	}
	if s.C > s.N {
		return errors.New("datagen: more clusters than points")
	}
	if s.Spread < 0 {
		return errors.New("datagen: negative spread")
	}
	return nil
}

// Dataset is a dense row-major point matrix whose values are drawn on
// first read: Spec, N and D never generate anything, so shape-only callers
// (count-mode kmeans and fuzzy profiles, simulator programs) cost no
// samples. A Dataset is shared by pointer and must not be copied.
type Dataset struct {
	Spec   Spec
	once   sync.Once
	points []float64 // len N*D, point i at [i*D : (i+1)*D]
	truth  []int     // generating cluster of each point
}

// Points returns the row-major point matrix (len N*D, point i at
// [i*D : (i+1)*D]), generating it on the first call. Callers must not
// modify it.
func (d *Dataset) Points() []float64 {
	d.once.Do(d.fill)
	return d.points
}

// Truth returns the generating cluster of each point, generating the data
// set on the first call. Callers must not modify it.
func (d *Dataset) Truth() []int {
	d.once.Do(d.fill)
	return d.truth
}

// N returns the point count.
func (d *Dataset) N() int { return d.Spec.N }

// D returns the dimensionality.
func (d *Dataset) D() int { return d.Spec.D }

// Generate validates spec, applies the default spread and returns the data
// set it describes; the points are drawn on first read.
func Generate(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Spread == 0 {
		spec.Spread = 0.05
	}
	return &Dataset{Spec: spec}, nil
}

// fill draws the data set: C cluster centers placed on a scaled lattice,
// each point drawn from a Gaussian around a uniformly chosen center.
func (d *Dataset) fill() {
	spec := d.Spec
	rng := stats.NewRand(spec.Seed)
	centers := make([]float64, spec.C*spec.D)
	for c := 0; c < spec.C; c++ {
		for j := 0; j < spec.D; j++ {
			centers[c*spec.D+j] = float64(c) + rng.Float64() // well separated along each axis
		}
	}
	d.points = make([]float64, spec.N*spec.D)
	d.truth = make([]int, spec.N)
	for i := 0; i < spec.N; i++ {
		c := rng.Intn(spec.C)
		d.truth[i] = c
		for j := 0; j < spec.D; j++ {
			d.points[i*spec.D+j] = centers[c*spec.D+j] + spec.Spread*rng.NormFloat64()
		}
	}
}

// The Table IV data-set specs. The "base" shapes match the paper exactly
// (N:17695 D:9 C:8); scaled variants double dimensions, points, or centers.
var (
	KMeansBase   = Spec{Label: "kmeans-base", N: 17695, D: 9, C: 8, Seed: 101}
	KMeansDim    = Spec{Label: "kmeans-dim", N: 17695, D: 18, C: 8, Seed: 102}
	KMeansPoint  = Spec{Label: "kmeans-point", N: 35390, D: 18, C: 8, Seed: 103}
	KMeansCenter = Spec{Label: "kmeans-center", N: 17695, D: 18, C: 32, Seed: 104}

	FuzzyBase   = Spec{Label: "fuzzy-base", N: 17695, D: 9, C: 8, Seed: 201}
	FuzzyDim    = Spec{Label: "fuzzy-dim", N: 17695, D: 18, C: 8, Seed: 202}
	FuzzyPoint  = Spec{Label: "fuzzy-point", N: 35390, D: 18, C: 8, Seed: 203}
	FuzzyCenter = Spec{Label: "fuzzy-center", N: 17695, D: 18, C: 32, Seed: 204}

	// hop uses particle sets: 64p default (61440 particles), 128p medium
	// (491520). Dimensions are 3 (positions); C seeds the density field.
	HopDefault = Spec{Label: "hop-default", N: 61440, D: 3, C: 64, Seed: 301}
	HopMedium  = Spec{Label: "hop-med", N: 491520, D: 3, C: 128, Seed: 302}
)

// TableIVKMeans returns the kmeans data-set variants in Table IV order.
func TableIVKMeans() []Spec { return []Spec{KMeansBase, KMeansDim, KMeansPoint, KMeansCenter} }

// TableIVFuzzy returns the fuzzy variants in Table IV order.
func TableIVFuzzy() []Spec { return []Spec{FuzzyBase, FuzzyDim, FuzzyPoint, FuzzyCenter} }

// TableIVHop returns the hop variants in Table IV order.
func TableIVHop() []Spec { return []Spec{HopDefault, HopMedium} }
