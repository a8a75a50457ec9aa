package reduction

import (
	"testing"
	"testing/quick"
)

func TestLockingCostModel(t *testing.T) {
	// Single thread never contends.
	if LockingCost(1, 1, 100) != 0 {
		t.Error("single-thread cost should be 0")
	}
	// Full locking (1 lock) with many threads fully serializes.
	if LockingCost(8, 1, 100) != 100 {
		t.Errorf("full locking with 8 threads should serialize all updates, got %g", LockingCost(8, 1, 100))
	}
	// One lock per thread's worth of blocks eliminates expected contention.
	if got := LockingCost(8, 8, 100); got != 0 {
		t.Errorf("8 locks / 8 threads: expected 0 serialized, got %g", got)
	}
	// More locks never increase cost.
	prev := LockingCost(16, 1, 100)
	for _, blocks := range []int{2, 4, 8, 16, 64} {
		c := LockingCost(16, blocks, 100)
		if c > prev {
			t.Errorf("cost increased with more locks: %g -> %g at %d blocks", prev, c, blocks)
		}
		prev = c
	}
}

func TestLockingCostProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	pred := func(tRaw, bRaw, uRaw uint8) bool {
		th := 1 + int(tRaw%64)
		blocks := 1 + int(bRaw%64)
		updates := int(uRaw)
		c := LockingCost(th, blocks, updates)
		return c >= 0 && c <= float64(updates)
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}
