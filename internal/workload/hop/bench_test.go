package hop

import (
	"strconv"
	"testing"

	"mergescale/internal/workload/datagen"
)

// BenchmarkHopRun times one native Run on the quick-mode hop-default data
// set (N = 7680) at the thread counts the quick experiments use.
func BenchmarkHopRun(b *testing.B) {
	spec := datagen.HopDefault
	spec.N /= 8
	ds, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	ds.Points() // draw the points outside every timed run
	for _, th := range []int{1, 2, 4} {
		b.Run("threads="+strconv.Itoa(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(ds, DefaultConfig(), th, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHopCount times one count-mode profile on the same data set and
// thread counts as BenchmarkHopRun, on a warm memo: the closed forms plus
// the cross-edge scan of the memoized kernel pass.
func BenchmarkHopCount(b *testing.B) {
	spec := datagen.HopDefault
	spec.N /= 8
	ds, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Count(ds, DefaultConfig(), 1); err != nil { // warm the memo
		b.Fatal(err)
	}
	for _, th := range []int{1, 2, 4} {
		b.Run("threads="+strconv.Itoa(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Count(ds, DefaultConfig(), th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
