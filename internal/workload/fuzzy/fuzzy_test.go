package fuzzy

import (
	"math"
	"testing"

	"mergescale/internal/core"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

func smallData(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{Label: "small", N: 600, D: 4, C: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRecoversClusters(t *testing.T) {
	ds := smallData(t)
	res, _, err := Run(ds, Config{K: 3, Iters: 25}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	labelMap := map[int]int{}
	agree := 0
	for i, truth := range ds.Truth() {
		if prev, ok := labelMap[truth]; ok {
			if prev == res.Assign[i] {
				agree++
			}
		} else {
			labelMap[truth] = res.Assign[i]
			agree++
		}
	}
	if frac := float64(agree) / float64(ds.N()); frac < 0.9 {
		t.Errorf("cluster agreement only %.2f", frac)
	}
}

func TestCentersNearTruth(t *testing.T) {
	ds := smallData(t)
	res, _, err := Run(ds, Config{K: 3, Iters: 30}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Every converged center must sit near one lattice cluster center
	// (coordinates c..c+1 along each axis, spread 0.05).
	for c := 0; c < 3; c++ {
		ctr := res.Centers[c*ds.D() : (c+1)*ds.D()]
		bestDist := math.MaxFloat64
		for truth := 0; truth < 3; truth++ {
			dist := 0.0
			for j := 0; j < ds.D(); j++ {
				diff := ctr[j] - (float64(truth) + 0.5)
				dist += diff * diff
			}
			if dist < bestDist {
				bestDist = dist
			}
		}
		if bestDist > 1.0 {
			t.Errorf("center %d far from any truth center: dist²=%.2f", c, bestDist)
		}
	}
}

func TestFuzzyHeavierThanKMeansParallel(t *testing.T) {
	// fuzzy's parallel section does more flops per point than kmeans'
	// (memberships for all clusters), which is why the paper measures a
	// larger parallel fraction for it.
	if opsPerPoint(8, 9) <= 3*8*9+8+9+1 {
		t.Errorf("fuzzy opsPerPoint %g should exceed kmeans'", opsPerPoint(8, 9))
	}
}

func TestExtractedParamsSane(t *testing.T) {
	ds := smallData(t)
	w := &Fuzzy{Cfg: Config{K: 3, Iters: 4}}
	var profiles []*trace.Profile
	for _, th := range []int{1, 2, 4, 8} {
		p, err := w.RunNative(ds, th, false)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	ap, err := trace.Extract(profiles, trace.ExtractOptions{Growth: core.GrowthLinear})
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Validate(); err != nil {
		t.Fatal(err)
	}
	if ap.F < 0.99 {
		t.Errorf("fuzzy F = %.5f, expected very high parallel fraction", ap.F)
	}

	// fuzzy must show a higher parallel fraction than kmeans on the same
	// data (Table II: 0.99998 vs 0.99985), since its serial work per
	// iteration is the same but its parallel work is larger.
	kmW := kmeansOpsPerPoint(3, ds.D())
	fzW := opsPerPoint(3, ds.D())
	if fzW <= kmW {
		t.Errorf("fuzzy per-point work %g should exceed kmeans %g", fzW, kmW)
	}
}

// kmeansOpsPerPoint mirrors the kmeans package accounting for comparison.
func kmeansOpsPerPoint(k, d int) float64 { return float64(3*k*d + k + d + 1) }

func TestRunValidation(t *testing.T) {
	ds := smallData(t)
	if _, _, err := Run(ds, Config{K: 0, Iters: 1}, 1, false); err == nil {
		t.Error("K=0 should fail")
	}
	if _, _, err := Run(ds, Config{K: 3, Iters: 0}, 1, false); err == nil {
		t.Error("Iters=0 should fail")
	}
	if _, _, err := Run(ds, Config{K: 3, Iters: 1}, 0, false); err == nil {
		t.Error("threads=0 should fail")
	}
	if _, _, err := Run(ds, Config{K: 10000, Iters: 1}, 1, false); err == nil {
		t.Error("K>N should fail")
	}
}

func TestMembershipDegenerateDistance(t *testing.T) {
	// Points exactly on a center must not produce NaNs (epsilon clamp).
	spec := datagen.Spec{Label: "deg", N: 30, D: 2, C: 2, Seed: 5, Spread: 1e-15}
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(ds, Config{K: 2, Iters: 5}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Centers {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("degenerate distances produced NaN/Inf centers")
		}
	}
}

func TestBuildProgramRuns(t *testing.T) {
	ds := smallData(t)
	w := &Fuzzy{Cfg: Config{K: 3, Iters: 2}}
	cfg := sim.DefaultConfig(4)
	prog, err := w.BuildProgram(ds, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sim.NewMachine(cfg)
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseCycles("parallel") == 0 || res.PhaseCycles("reduction") == 0 {
		t.Error("missing phase cycles")
	}
	// fuzzy's simulated parallel phase must out-weigh kmeans' for the same
	// shape (higher f).
}

func TestWorkloadMetadata(t *testing.T) {
	w := New()
	if w.Name() != "fuzzy" {
		t.Errorf("Name = %q", w.Name())
	}
	if w.DefaultSpec().Label != "fuzzy-base" {
		t.Errorf("DefaultSpec = %+v", w.DefaultSpec())
	}
}
