package reduction

import (
	"math"
	"testing"
	"testing/quick"

	"mergescale/internal/parallel"
)

// fill populates t partial buffers of width x with small integers so that
// addition is exact and strategy results are bit-identical.
func fill(t, x int, seed int) *parallel.Privatized {
	pv := parallel.NewPrivatized(t, x)
	for id := 0; id < t; id++ {
		buf := pv.Buf(id)
		for i := range buf {
			buf[i] = float64(((id+1)*(i+3) + seed) % 17)
		}
	}
	return pv
}

func serialSum(pv *parallel.Privatized) []float64 {
	out := make([]float64, pv.Width())
	for id := 0; id < pv.Threads(); id++ {
		for i, v := range pv.Buf(id) {
			out[i] += v
		}
	}
	return out
}

func TestStrategiesAgree(t *testing.T) {
	for _, th := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, x := range []int{1, 5, 64} {
			want := serialSum(fill(th, x, 0))
			for _, s := range []Strategy{Linear, Tree, Parallel} {
				pv := fill(th, x, 0)
				dst := make([]float64, x)
				if _, err := Reduce(s, pv, dst, nil); err != nil {
					t.Fatalf("%s t=%d x=%d: %v", s, th, x, err)
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("%s t=%d x=%d: dst[%d]=%g want %g", s, th, x, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

func TestParallelStrategyOnPool(t *testing.T) {
	const th, x = 6, 40
	pool, err := parallel.NewPool(th)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	want := serialSum(fill(th, x, 3))
	pv := fill(th, x, 3)
	dst := make([]float64, x)
	cost, err := Reduce(Parallel, pv, dst, pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("pooled parallel reduce wrong at %d", i)
		}
	}
	if cost.AddOps != th*x {
		t.Errorf("AddOps = %d, want %d", cost.AddOps, th*x)
	}
}

func TestParallelStrategyPoolSizeMismatch(t *testing.T) {
	pool, _ := parallel.NewPool(3)
	defer pool.Close()
	pv := fill(4, 8, 0)
	dst := make([]float64, 8)
	if _, err := Reduce(Parallel, pv, dst, pool); err == nil {
		t.Error("expected pool-size mismatch error")
	}
}

func TestReduceWidthMismatch(t *testing.T) {
	pv := fill(2, 8, 0)
	if _, err := Reduce(Linear, pv, make([]float64, 7), nil); err == nil {
		t.Error("expected width mismatch error")
	}
}

func TestLinearCostGrowsLinearly(t *testing.T) {
	const x = 32
	var prev Cost
	for _, th := range []int{1, 2, 4, 8, 16} {
		pv := fill(th, x, 0)
		dst := make([]float64, x)
		cost, _ := Reduce(Linear, pv, dst, nil)
		if cost.AddOps != th*x || cost.CriticalOps != th*x {
			t.Fatalf("t=%d: cost %+v", th, cost)
		}
		if prev.AddOps != 0 && cost.CriticalOps != 2*prev.CriticalOps {
			t.Fatalf("critical ops did not double: %d -> %d", prev.CriticalOps, cost.CriticalOps)
		}
		prev = cost
	}
}

func TestTreeCostGrowsLogarithmically(t *testing.T) {
	const x = 32
	for _, tc := range []struct{ th, rounds int }{
		{1, 0}, {2, 1}, {4, 2}, {8, 3}, {16, 4}, {5, 3}, {7, 3},
	} {
		pv := fill(tc.th, x, 0)
		dst := make([]float64, x)
		cost, _ := Reduce(Tree, pv, dst, nil)
		if cost.Rounds != tc.rounds {
			t.Errorf("t=%d: rounds=%d, want %d", tc.th, cost.Rounds, tc.rounds)
		}
		if cost.CriticalOps != tc.rounds*x {
			t.Errorf("t=%d: critical=%d, want %d", tc.th, cost.CriticalOps, tc.rounds*x)
		}
		// Total work is the same t·x additions minus the x the final vector
		// never needed: exactly (t-1)·x adds.
		if cost.AddOps != (tc.th-1)*x {
			t.Errorf("t=%d: addops=%d, want %d", tc.th, cost.AddOps, (tc.th-1)*x)
		}
	}
}

func TestParallelCostConstantComputation(t *testing.T) {
	const x = 64
	for _, th := range []int{1, 2, 4, 8, 16, 32, 64} {
		pv := fill(th, x, 0)
		dst := make([]float64, x)
		cost, _ := Reduce(Parallel, pv, dst, nil)
		// Critical path = ceil(x/t)*t: constant (= x) when t divides x.
		if x%th == 0 && cost.CriticalOps != x {
			t.Errorf("t=%d: critical=%d, want %d (no growth)", th, cost.CriticalOps, x)
		}
		// Communication grows as 2*(t-1)*x.
		wantComm := 0
		if th > 1 {
			wantComm = 2 * (th - 1) * x
		}
		if cost.CommElems != wantComm {
			t.Errorf("t=%d: comm=%d, want %d", th, cost.CommElems, wantComm)
		}
	}
}

func TestCostMatchesPrediction(t *testing.T) {
	for _, s := range []Strategy{Linear, Tree, Parallel} {
		for _, th := range []int{1, 2, 3, 8, 16} {
			for _, x := range []int{8, 64} {
				pv := fill(th, x, 1)
				dst := make([]float64, x)
				cost, err := Reduce(s, pv, dst, nil)
				if err != nil {
					t.Fatal(err)
				}
				if s == Tree && th == 1 {
					// Predicted uses min 1 round; measured is 0 merges.
					if cost.CriticalOps != 0 || PredictedCritical(s, th, x) != x {
						t.Errorf("tree t=1 x=%d: critical %d, predicted %d; want 0 and %d",
							x, cost.CriticalOps, PredictedCritical(s, th, x), x)
					}
					continue
				}
				if got, want := cost.CriticalOps, PredictedCritical(s, th, x); got != want {
					t.Errorf("%s t=%d x=%d: critical %d != predicted %d", s, th, x, got, want)
				}
				// Section V-E: (t-1)·x elements gathered for linear and
				// tree, 2·(t-1)·x exchanged and broadcast for parallel.
				wantComm := (th - 1) * x
				if s == Parallel {
					wantComm *= 2
				}
				if got := cost.CommElems; got != wantComm {
					t.Errorf("%s t=%d x=%d: comm %d, want %d", s, th, x, got, wantComm)
				}
			}
		}
	}
}

// TestCostOfMatchesReduce: the closed form returns exactly the Cost that
// Reduce counts, for every strategy, t in 1..64 and widths on both sides
// of t, including widths t does not divide.
func TestCostOfMatchesReduce(t *testing.T) {
	for _, s := range []Strategy{Linear, Tree, Parallel} {
		for th := 1; th <= 64; th++ {
			for _, x := range []int{1, 2, 3, 7, 8, 9, 31, 63, 64, 65, 100} {
				cost, err := Reduce(s, fill(th, x, 2), make([]float64, x), nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := CostOf(s, th, x); got != cost {
					t.Errorf("%s t=%d x=%d: CostOf %+v, Reduce counted %+v", s, th, x, got, cost)
				}
			}
		}
		// A zero-width merge counts nothing.
		cost, err := Reduce(s, parallel.NewPrivatized(4, 0), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := CostOf(s, 4, 0); got != cost {
			t.Errorf("%s x=0: CostOf %+v, Reduce counted %+v", s, got, cost)
		}
	}
}

func TestStrategyValidate(t *testing.T) {
	for _, s := range []Strategy{Linear, Tree, Parallel} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	bad := Strategy(7)
	_, want := Reduce(bad, fill(2, 4, 0), make([]float64, 4), nil)
	if err := bad.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("Validate(%d) = %v, Reduce error %v", int(bad), err, want)
	}
	if c := CostOf(bad, 2, 4); c != (Cost{}) {
		t.Errorf("CostOf(%d) = %+v, want zero", int(bad), c)
	}
}

func TestStrategyOrderingProperty(t *testing.T) {
	// For t >= 2 and x a multiple of t (so the parallel chunks are even):
	// critical path parallel <= tree <= linear.
	cfg := &quick.Config{MaxCount: 300}
	pred := func(tRaw, xRaw uint8) bool {
		th := 2 + int(tRaw%31)
		x := th * (1 + int(xRaw%8))
		lin := PredictedCritical(Linear, th, x)
		tree := PredictedCritical(Tree, th, x)
		par := PredictedCritical(Parallel, th, x)
		return par <= tree && tree <= lin
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestReduceEquivalenceProperty(t *testing.T) {
	// Property: all strategies compute the same sums on random integral
	// inputs (exact float addition).
	cfg := &quick.Config{MaxCount: 150}
	pred := func(tRaw, xRaw, seed uint8) bool {
		th := 1 + int(tRaw%16)
		x := 1 + int(xRaw%77)
		want := serialSum(fill(th, x, int(seed)))
		for _, s := range []Strategy{Linear, Tree, Parallel} {
			pv := fill(th, x, int(seed))
			dst := make([]float64, x)
			if _, err := Reduce(s, pv, dst, nil); err != nil {
				return false
			}
			for i := range dst {
				if math.Abs(dst[i]-want[i]) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestZeroWidthReduce(t *testing.T) {
	pv := parallel.NewPrivatized(4, 0)
	for _, s := range []Strategy{Linear, Tree, Parallel} {
		if _, err := Reduce(s, pv, nil, nil); err != nil {
			t.Errorf("%s: zero-width reduce failed: %v", s, err)
		}
	}
}
