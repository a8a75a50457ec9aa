package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Error("NewPool(0) should fail")
	}
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Threads() != 4 {
		t.Errorf("Threads = %d", p.Threads())
	}
}

func TestPoolRunVisitsEveryWorker(t *testing.T) {
	p, _ := NewPool(8)
	defer p.Close()
	var mu sync.Mutex
	seen := map[int]int{}
	for iter := 0; iter < 10; iter++ {
		p.Run(func(id int) {
			mu.Lock()
			seen[id]++
			mu.Unlock()
		})
	}
	if len(seen) != 8 {
		t.Fatalf("expected 8 distinct workers, saw %d", len(seen))
	}
	for id, n := range seen {
		if n != 10 {
			t.Errorf("worker %d ran %d times, want 10", id, n)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p, _ := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestSplitProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	pred := func(nRaw, tRaw uint16) bool {
		n := int(nRaw % 10000)
		th := 1 + int(tRaw%64)
		ranges := Split(n, th)
		if len(ranges) != th {
			return false
		}
		total := 0
		prevHi := 0
		minSize, maxSize := 1<<30, 0
		for _, r := range ranges {
			if r.Lo != prevHi || r.Hi < r.Lo {
				return false // contiguous, ordered, non-negative
			}
			size := r.Hi - r.Lo
			total += size
			prevHi = r.Hi
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		// covers exactly [0,n) and is balanced within one item
		return total == n && prevHi == n && maxSize-minSize <= 1
	}
	if err := quick.Check(pred, cfg); err != nil {
		t.Error(err)
	}
}

func TestSplitDegenerate(t *testing.T) {
	r := Split(5, 0) // t < 1 clamps to 1
	if len(r) != 1 || r[0] != (Range{0, 5}) {
		t.Errorf("Split(5,0) = %v", r)
	}
	r = Split(0, 4)
	for _, rr := range r {
		if rr.Lo != rr.Hi {
			t.Errorf("Split(0,4) produced non-empty range %v", rr)
		}
	}
	r = Split(2, 8) // more threads than items
	nonEmpty := 0
	for _, rr := range r {
		if rr.Hi > rr.Lo {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Errorf("Split(2,8): %d non-empty ranges, want 2", nonEmpty)
	}
}

func TestForSumsCorrectly(t *testing.T) {
	p, _ := NewPool(7)
	defer p.Close()
	n := 1001
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	var sum int64
	p.For(n, func(id, lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += data[i]
		}
		atomic.AddInt64(&sum, local)
	})
	want := int64(n) * int64(n-1) / 2
	if sum != want {
		t.Errorf("For sum = %d, want %d", sum, want)
	}
}

// TestPrivatizedMerge checks the merging phase's per-thread buffers:
// their shape, and that Reset zeroes every one.
func TestPrivatizedMerge(t *testing.T) {
	const threads, width = 5, 12
	pv := NewPrivatized(threads, width)
	if pv.Threads() != threads || pv.Width() != width {
		t.Fatalf("shape = %d x %d", pv.Threads(), pv.Width())
	}
	for id := 0; id < threads; id++ {
		buf := pv.Buf(id)
		for i := range buf {
			buf[i] = float64(id + 1)
		}
	}
	pv.Reset()
	for id := 0; id < threads; id++ {
		for _, v := range pv.Buf(id) {
			if v != 0 {
				t.Fatal("Reset did not zero buffers")
			}
		}
	}
}

func TestPoolForWithFewerItemsThanWorkers(t *testing.T) {
	p, _ := NewPool(16)
	defer p.Close()
	var calls int64
	p.For(3, func(id, lo, hi int) {
		atomic.AddInt64(&calls, int64(hi-lo))
	})
	if calls != 3 {
		t.Errorf("processed %d items, want 3", calls)
	}
}
