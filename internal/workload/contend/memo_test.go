package contend

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestZipfTraceMemo: concurrent callers of one key share one generation
// and one read-only slice equal to a fresh rand.Zipf sequence; Mode,
// OpsPerTx and Rounds do not split the key, a different seed does.
func TestZipfTraceMemo(t *testing.T) {
	c := DefaultConfig()
	c.Alpha = 1.37 // a key no other test builds
	const seed, n = 99, 2048
	for _, s := range []uint64{seed, seed + 1} { // fresh under -count
		zipfTraces.Delete(zipfKey{seed: s, n: n, alpha: c.Alpha, keys: c.Keys})
	}
	before := TracesBuilt()

	const callers = 8
	got := make([][]uint32, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ci := c
			if i%2 == 1 {
				ci.Mode, ci.OpsPerTx, ci.Rounds = Split, 3, 7
			}
			got[i] = zipfTrace(seed, n, ci)
		}()
	}
	wg.Wait()
	if built := TracesBuilt() - before; built != 1 {
		t.Fatalf("%d concurrent callers of one key built %d traces, want 1", callers, built)
	}
	want := make([]uint32, n)
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), c.Alpha, 1, uint64(c.Keys-1))
	for i := range want {
		want[i] = uint32(z.Uint64())
	}
	for i, g := range got {
		if &g[0] != &got[0][0] {
			t.Errorf("caller %d got its own slice, want the shared one", i)
		}
		if !slices.Equal(g, want) {
			t.Errorf("caller %d: memoized trace differs from a fresh generation", i)
		}
	}
	if other := zipfTrace(seed+1, n, c); slices.Equal(other, want) || TracesBuilt()-before != 2 {
		t.Errorf("a different seed must build its own trace (built %d)", TracesBuilt()-before)
	}
}
