package datagen

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateShape(t *testing.T) {
	spec := Spec{Label: "t", N: 100, D: 5, C: 4, Seed: 1}
	ds, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points) != 500 || len(ds.Truth) != 100 {
		t.Fatalf("shape wrong: %d points, %d truth", len(ds.Points), len(ds.Truth))
	}
	if ds.N() != 100 || ds.D() != 5 {
		t.Errorf("N/D accessors wrong")
	}
	if len(ds.Point(3)) != 5 {
		t.Errorf("Point view wrong length")
	}
	for _, c := range ds.Truth {
		if c < 0 || c >= 4 {
			t.Fatalf("truth label %d out of range", c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Spec{Label: "a", N: 50, D: 3, C: 2, Seed: 7})
	b, _ := Generate(Spec{Label: "a", N: 50, D: 3, C: 2, Seed: 7})
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("same seed should give identical data")
		}
	}
	c, _ := Generate(Spec{Label: "a", N: 50, D: 3, C: 2, Seed: 8})
	same := true
	for i := range a.Points {
		if a.Points[i] != c.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different data")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{N: 0, D: 1, C: 1},
		{N: 10, D: 0, C: 1},
		{N: 10, D: 1, C: 0},
		{N: 3, D: 1, C: 5},
		{N: 10, D: 1, C: 1, Spread: -1},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestClustersAreSeparated(t *testing.T) {
	// With the default small spread, points should lie near their
	// generating center: the per-cluster mean along axis 0 should be close
	// to the center ordinate (centers are laid out on a unit-spaced
	// lattice, noise sigma = 0.05).
	ds, err := Generate(Spec{Label: "sep", N: 4000, D: 2, C: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, 4)
	counts := make([]float64, 4)
	for i := 0; i < ds.N(); i++ {
		c := ds.Truth[i]
		sums[c] += ds.Point(i)[0]
		counts[c]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		mean := sums[c] / counts[c]
		if math.Abs(mean-float64(c)-0.5) > 0.55 {
			t.Errorf("cluster %d mean %.2f far from lattice position %d..%d", c, mean, c, c+1)
		}
	}
}

func TestTableIVSpecs(t *testing.T) {
	km := TableIVKMeans()
	if len(km) != 4 || km[0].N != 17695 || km[0].D != 9 || km[0].C != 8 {
		t.Errorf("kmeans-base spec wrong: %+v", km[0])
	}
	if km[2].N != 35390 {
		t.Errorf("kmeans-point should double N: %+v", km[2])
	}
	fz := TableIVFuzzy()
	if len(fz) != 4 || fz[3].C != 32 {
		t.Errorf("fuzzy-center spec wrong: %+v", fz[3])
	}
	hp := TableIVHop()
	if len(hp) != 2 || hp[0].N != 61440 || hp[1].N != 491520 {
		t.Errorf("hop specs wrong: %+v", hp)
	}
	for _, s := range append(append(km, fz...), hp...) {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Label, err)
		}
	}
}

func TestGenerateFiniteProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	pred := func(nRaw, dRaw, cRaw uint8, seed uint16) bool {
		n := 1 + int(nRaw)%200
		d := 1 + int(dRaw)%6
		c := 1 + int(cRaw)%8
		if c > n {
			c = n
		}
		ds, err := Generate(Spec{Label: "q", N: n, D: d, C: c, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		for _, v := range ds.Points {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}
