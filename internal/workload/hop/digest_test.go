package hop

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// hopDigest is the SHA-256 of every Run output over the grid in
// TestRunDigest: the group of each point, the group count and the four
// Profile.Work sections. It was taken on the straightforward kernel (two
// window passes over ds.Point, recomputing each distance), so any kernel
// rewrite must reproduce the grouping and the operation counts bit for
// bit.
const hopDigest = "53fab078dfad9bb0c52e0ba3b45f9bea4d3d1e46fb044b4ae06c4dddd92570af"

// digestSpecs covers D = 2, 3 and 4, the quick-mode hop-default set
// (N/8 = 7680) and the full hop-default set.
func digestSpecs() []datagen.Spec {
	quick := datagen.HopDefault
	quick.N /= 8
	return []datagen.Spec{
		{Label: "hop-d2", N: 3000, D: 2, C: 12, Seed: 71},
		{Label: "hop-d3", N: 3000, D: 3, C: 12, Seed: 72},
		{Label: "hop-d4", N: 3000, D: 4, C: 12, Seed: 73},
		quick,
		datagen.HopDefault,
	}
}

func TestRunDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, spec := range digestSpecs() {
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, nbr := range []int{1, 64, 129} {
			for _, th := range []int{1, 2, 3, 4, 8} {
				res, prof, err := Run(ds, Config{MaxNeighbors: nbr}, th, false)
				if err != nil {
					t.Fatalf("%s nbr=%d threads=%d: %v", spec.Label, nbr, th, err)
				}
				h.Write([]byte(spec.Label))
				put(uint64(nbr))
				put(uint64(th))
				put(uint64(res.Groups))
				for _, g := range res.Group {
					put(uint64(g))
				}
				for _, s := range trace.Sections() {
					put(math.Float64bits(prof.SectionWork(s)))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != hopDigest {
		t.Errorf("hop Run digest = %s, want %s", got, hopDigest)
	}
}
