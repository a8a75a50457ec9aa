package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanAndVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestMinMaxArgMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Errorf("Min/Max broken: %g %g", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Errorf("empty Min/Max = %g %g, want +Inf -Inf", Min(nil), Max(nil))
	}
}

func TestLinRegRecoversLine(t *testing.T) {
	x := []float64{1, 2, 4, 8, 16}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 0.7 + 0.31*v
	}
	a, b, r2, err := LinReg(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.7) > 1e-9 || math.Abs(b-0.31) > 1e-9 {
		t.Errorf("LinReg = (%g, %g)", a, b)
	}
	if math.Abs(r2-1) > 1e-9 {
		t.Errorf("R² = %g, want 1", r2)
	}
}

func TestLinRegErrors(t *testing.T) {
	if _, _, _, err := LinReg([]float64{1}, []float64{1}); err == nil {
		t.Error("LinReg should reject a single point")
	}
	if _, _, _, err := LinReg([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("LinReg should reject mismatched lengths")
	}
	if _, _, _, err := LinReg([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("LinReg should reject degenerate x")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
	// Zero seed must not get stuck at zero.
	z := NewRand(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(7)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[r.Intn(8)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(8) bucket %d badly skewed: %d/8000", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(99)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(32)
	seen := make([]bool, 32)
	for _, v := range p {
		if v < 0 || v >= 32 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestLinRegPropertyR2Bounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	pred := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		x := make([]float64, len(raw))
		y := make([]float64, len(raw))
		r := NewRand(uint64(raw[0]) + 1)
		for i := range raw {
			x[i] = float64(i)
			y[i] = float64(raw[i]) + r.Float64()
		}
		_, _, r2, err := LinReg(x, y)
		if err != nil {
			return true
		}
		return r2 <= 1+1e-9 && !math.IsNaN(r2)
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}
