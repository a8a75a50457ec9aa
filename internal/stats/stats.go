package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by aggregate functions when given no samples.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// LinReg fits y = a + b*x by ordinary least squares and returns the
// intercept a, slope b, and the coefficient of determination R².
// It returns ErrEmpty when fewer than two points are supplied.
func LinReg(x, y []float64) (a, b, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, errors.New("stats: x and y length mismatch")
	}
	if len(x) < 2 {
		return 0, 0, 0, ErrEmpty
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, 0, errors.New("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	// R².
	my := sy / n
	var ssRes, ssTot float64
	for i := range x {
		fit := a + b*x[i]
		ssRes += (y[i] - fit) * (y[i] - fit)
		ssTot += (y[i] - my) * (y[i] - my)
	}
	if ssTot == 0 {
		r2 = 1
	} else {
		r2 = 1 - ssRes/ssTot
	}
	return a, b, r2, nil
}

// Rand is a small deterministic xorshift64* PRNG. It is used instead of
// math/rand so that workload generation is stable across Go releases and
// reproducible from a seed recorded in experiment output.
type Rand struct{ state uint64 }

// NewRand returns a deterministic generator; a zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform. Two uniforms are consumed per call.
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
