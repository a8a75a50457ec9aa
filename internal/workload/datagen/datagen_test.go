package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestGenerateShape(t *testing.T) {
	spec := Spec{Label: "t", N: 100, D: 5, C: 4, Seed: 1}
	ds, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points()) != 500 || len(ds.Truth()) != 100 {
		t.Fatalf("shape wrong: %d points, %d truth", len(ds.Points()), len(ds.Truth()))
	}
	if ds.N() != 100 || ds.D() != 5 {
		t.Errorf("N/D accessors wrong")
	}
	for _, c := range ds.Truth() {
		if c < 0 || c >= 4 {
			t.Fatalf("truth label %d out of range", c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(Spec{Label: "a", N: 50, D: 3, C: 2, Seed: 7})
	b, _ := Generate(Spec{Label: "a", N: 50, D: 3, C: 2, Seed: 7})
	for i, v := range a.Points() {
		if v != b.Points()[i] {
			t.Fatal("same seed should give identical data")
		}
	}
	c, _ := Generate(Spec{Label: "a", N: 50, D: 3, C: 2, Seed: 8})
	same := true
	for i, v := range a.Points() {
		if v != c.Points()[i] {
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
	points, truth := ds.Points(), ds.Truth()
	for i, c := range truth {
		sums[c] += points[i*ds.D()]
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
		for _, v := range ds.Points() {
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

// pointsDigest is the SHA-256 over the little-endian words of every point
// value's bits, then of every truth label.
func pointsDigest(ds *Dataset) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range ds.Points() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range ds.Truth() {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPointsPinned pins the point stream of the quick-mode (N/8) specs the
// experiments read: drawing on first read must keep the generator's draw
// order and values exactly.
func TestPointsPinned(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{KMeansBase, "d9785197297c314e86f54ade540cfa1c5a59950cac7220f578b301a6180252be"},
		{FuzzyCenter, "162a67053577e0f4d4dfb9a0a7fc24262ecbd1f013f5a51cb3755e32e4f12226"},
		{HopDefault, "ae4348bb9eb3db5d14e863da215aae320504a220df5d3c0e90cd784638a3382c"},
	} {
		spec := tc.spec
		spec.N /= 8
		ds, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := pointsDigest(ds); got != tc.want {
			t.Errorf("%s (N=%d): points digest %s, want %s", spec.Label, spec.N, got, tc.want)
		}
	}
}

// TestPointsConcurrentFirstUse: concurrent first reads of one fresh
// Dataset draw it once and all see the same backing arrays.
func TestPointsConcurrentFirstUse(t *testing.T) {
	ds, err := Generate(Spec{Label: "race", N: 2048, D: 3, C: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	points := make([][]float64, readers)
	truth := make([][]int, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				points[i], truth[i] = ds.Points(), ds.Truth()
			} else {
				truth[i], points[i] = ds.Truth(), ds.Points()
			}
		}()
	}
	wg.Wait()
	for i := range readers {
		if len(points[i]) != ds.N()*ds.D() || len(truth[i]) != ds.N() {
			t.Fatalf("reader %d: %d points, %d labels", i, len(points[i]), len(truth[i]))
		}
		if &points[i][0] != &points[0][0] || &truth[i][0] != &truth[0][0] {
			t.Fatalf("reader %d got a different backing array than reader 0", i)
		}
	}
}
