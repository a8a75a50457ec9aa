package reduction

// LockingCost models the "full locking" and "optimized locking" reduction
// techniques of Jin, Yang & Agrawal (TKDE 2005), the alternative to the
// privatized reductions the paper studies: threads update one shared
// result array under locks, so there is no merging phase and the cost
// moves into the parallel section as lock traffic. It estimates the
// serialized cost for t threads performing `updates` lock acquisitions
// each over `blocks` locks: with uniform access, the expected number of
// threads contending on one lock is t/blocks, and contended acquisitions
// serialize. The returned value is the expected serialized share of the
// acquisitions, the analogue of fored for locked reductions.
func LockingCost(t, blocks int, updates int) float64 {
	if t <= 1 || updates <= 0 {
		return 0
	}
	if blocks < 1 {
		blocks = 1
	}
	contenders := float64(t) / float64(blocks)
	if contenders > float64(t) {
		contenders = float64(t)
	}
	// Probability an acquisition finds its lock held scales with the
	// number of other contenders on the same lock.
	p := contenders - 1
	if p < 0 {
		p = 0
	}
	if p > 1 {
		return float64(updates) // fully serialized
	}
	return p * float64(updates)
}
