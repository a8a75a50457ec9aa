package reduction

import (
	"errors"
	"fmt"

	"mergescale/internal/parallel"
)

// Strategy identifies a merging-phase implementation.
type Strategy int

const (
	// Linear merges partials one thread at a time on a single core:
	// computation grows linearly with t (Algorithm 1 in the paper).
	Linear Strategy = iota
	// Tree merges pairwise in ceil(log2(t)) rounds; each round halves the
	// number of live partial vectors.
	Tree
	// Parallel assigns each thread x/t elements of the reduction; the
	// computation per thread is constant, but every thread must read all
	// other threads' partials (all-to-all communication).
	Parallel
)

// String returns the strategy name used in reports.
func (s Strategy) String() string {
	switch s {
	case Linear:
		return "linear"
	case Tree:
		return "tree"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("reduction.Strategy(%d)", int(s))
	}
}

// Validate returns nil for a known strategy and, for any other value, the
// error Reduce returns for it.
func (s Strategy) Validate() error {
	switch s {
	case Linear, Tree, Parallel:
		return nil
	}
	return fmt.Errorf("reduction: unknown strategy %d", int(s))
}

// Cost reports the work performed by one reduction.
type Cost struct {
	AddOps      int // floating-point additions executed in total
	CriticalOps int // additions on the longest dependency path (serial time)
	CommElems   int // partial-result elements moved between threads
	Rounds      int // synchronization rounds (barriers)
}

// Reduce merges the partial vectors in pv into dst using the strategy,
// optionally running the Parallel strategy on the supplied pool (the Linear
// and Tree strategies ignore the pool: Linear is single-threaded by
// definition, and Tree's round structure is executed by the calling thread
// level-by-level to keep its cost accounting exact). It returns the cost
// breakdown. dst must have length pv.Width().
//
// The partial buffers are consumed: Tree reduction accumulates in place.
func Reduce(s Strategy, pv *parallel.Privatized, dst []float64, pool *parallel.Pool) (Cost, error) {
	if len(dst) != pv.Width() {
		return Cost{}, errors.New("reduction: dst width mismatch")
	}
	if pv.Width() == 0 {
		return Cost{}, nil
	}
	switch s {
	case Linear:
		return reduceLinear(pv, dst), nil
	case Tree:
		return reduceTree(pv, dst), nil
	case Parallel:
		return reduceParallel(pv, dst, pool)
	default:
		return Cost{}, s.Validate()
	}
}

// CostOf returns the Cost that Reduce counts when it merges t partial
// vectors of x elements with strategy s. No count depends on the values
// being merged, so this is the whole accounting without the additions.
// It returns the zero Cost for x < 1, t < 1 or an unknown strategy.
func CostOf(s Strategy, t, x int) Cost {
	if x < 1 || t < 1 {
		return Cost{}
	}
	switch s {
	case Linear:
		return Cost{AddOps: t * x, CriticalOps: t * x, CommElems: (t - 1) * x, Rounds: 1}
	case Tree:
		// Each round pairs off half the live vectors, and each pair merge
		// retires one, so t-1 vector adds and moves happen in all. A single
		// vector needs no round.
		rounds := 0
		for n := t; n > 1; n = (n + 1) / 2 {
			rounds++
		}
		return Cost{AddOps: (t - 1) * x, CriticalOps: rounds * x, CommElems: (t - 1) * x, Rounds: rounds}
	case Parallel:
		return Cost{AddOps: t * x, CriticalOps: (x + t - 1) / t * t, CommElems: 2 * (t - 1) * x, Rounds: 1}
	default:
		return Cost{}
	}
}

func reduceLinear(pv *parallel.Privatized, dst []float64) Cost {
	t, x := pv.Threads(), pv.Width()
	for id := 0; id < t; id++ {
		buf := pv.Buf(id)
		for i, v := range buf {
			dst[i] += v
		}
	}
	// Every addition is on the critical path: one thread does all the work.
	// Each non-local partial vector is communicated to the merging thread.
	comm := 0
	if t > 1 {
		comm = (t - 1) * x
	}
	return Cost{AddOps: t * x, CriticalOps: t * x, CommElems: comm, Rounds: 1}
}

func reduceTree(pv *parallel.Privatized, dst []float64) Cost {
	t, x := pv.Threads(), pv.Width()
	live := make([][]float64, t)
	for i := 0; i < t; i++ {
		live[i] = pv.Buf(i)
	}
	cost := Cost{}
	for len(live) > 1 {
		cost.Rounds++
		half := len(live) / 2
		for i := 0; i < half; i++ {
			a := live[i]
			b := live[len(live)-1-i]
			if &a[0] == &b[0] { // odd count middle element pairs with itself; skip
				continue
			}
			for j, v := range b {
				a[j] += v
			}
			cost.AddOps += x
			cost.CommElems += x // b's vector moves to a's thread
		}
		// Each round's pairwise adds run concurrently; the critical path
		// grows by one vector-add per round.
		cost.CriticalOps += x
		live = live[:len(live)-half]
	}
	copy(dst, live[0])
	return cost
}

func reduceParallel(pv *parallel.Privatized, dst []float64, pool *parallel.Pool) (Cost, error) {
	t, x := pv.Threads(), pv.Width()
	body := func(id, lo, hi int) {
		for th := 0; th < t; th++ {
			buf := pv.Buf(th)
			for i := lo; i < hi; i++ {
				dst[i] += buf[i]
			}
		}
	}
	if pool != nil {
		if pool.Threads() != t {
			return Cost{}, fmt.Errorf("reduction: pool size %d != partial count %d", pool.Threads(), t)
		}
		pool.For(x, body)
	} else {
		for id, r := range parallel.Split(x, t) {
			if r.Lo < r.Hi {
				body(id, r.Lo, r.Hi)
			}
		}
	}
	// Total adds t*x, but spread over t threads: the critical path is the
	// largest chunk, ceil(x/t)*t adds per thread... each thread performs
	// t additions per owned element, over ceil(x/t) elements.
	chunk := x / t
	if x%t != 0 {
		chunk++
	}
	// Each thread reads t-1 remote chunks of its elements, and the merged
	// results are broadcast back: 2*(t-1)*x element transfers in total
	// (the paper's 2·(n-1)·x communication count).
	comm := 0
	if t > 1 {
		comm = 2 * (t - 1) * x
	}
	return Cost{AddOps: t * x, CriticalOps: chunk * t, CommElems: comm, Rounds: 1}, nil
}

// PredictedCritical returns the model's critical-path operation count for a
// reduction over x elements on t threads, matching the growth functions
// used by internal/core: linear -> t·x, tree -> ceil(log2(t))·x (min 1
// round), parallel -> ceil(x/t)·t. It differs from what Reduce counts
// (CostOf) in one case, Tree at t=1: Reduce merges nothing there and counts
// 0, while the model's growth function charges one round so that the tree
// curve starts at x like the others.
func PredictedCritical(s Strategy, t, x int) int {
	if t < 1 {
		t = 1
	}
	switch s {
	case Linear:
		return t * x
	case Tree:
		rounds := 0
		for n := t; n > 1; n = (n + 1) / 2 {
			rounds++
		}
		if rounds == 0 {
			rounds = 1
		}
		return rounds * x
	case Parallel:
		chunk := x / t
		if x%t != 0 {
			chunk++
		}
		return chunk * t
	default:
		return 0
	}
}
