package kmeans

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
	ds, err := datagen.Generate(datagen.Spec{Label: "small", N: 800, D: 4, C: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRecoversClusters(t *testing.T) {
	ds := smallData(t)
	cfg := Config{K: 4, Iters: 20, Strategy: 0}
	res, _, err := Run(ds, cfg, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// On well-separated Gaussians, points sharing a truth label must share
	// a k-means label (allowing the small boundary minority).
	agree := 0
	labelMap := map[int]int{}
	for i, truth := range ds.Truth() {
		got := res.Assign[i]
		if prev, ok := labelMap[truth]; ok {
			if prev == got {
				agree++
			}
		} else {
			labelMap[truth] = got
			agree++
		}
	}
	if frac := float64(agree) / float64(ds.N()); frac < 0.95 {
		t.Errorf("cluster agreement only %.2f", frac)
	}
	if res.Iters != 20 {
		t.Errorf("Iters = %d", res.Iters)
	}
}

func TestAssignmentsStableAcrossThreads(t *testing.T) {
	ds := smallData(t)
	cfg := Config{K: 4, Iters: 10}
	base, _, err := Run(ds, cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{2, 3, 8} {
		res, _, err := Run(ds, cfg, th, false)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range base.Assign {
			if base.Assign[i] != res.Assign[i] {
				diff++
			}
		}
		// Partial-sum association differs across thread counts, so a few
		// boundary points may flip; the clustering itself must be stable.
		if diff > ds.N()/100 {
			t.Errorf("threads=%d: %d assignments changed", th, diff)
		}
	}
}

func TestProfileSections(t *testing.T) {
	ds := smallData(t)
	cfg := Config{K: 4, Iters: 5}
	_, prof, err := Run(ds, cfg, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Threads != 4 || prof.Name != "kmeans" {
		t.Errorf("profile metadata: %+v", prof)
	}
	par := prof.SectionWork(trace.SecParallel)
	wantPar := float64(ds.N()) * opsPerPoint(4, 4) * 5
	if par != wantPar {
		t.Errorf("parallel work = %g, want %g", par, wantPar)
	}
	// Reduction work: per iteration threads*K*(D+1) + 2*K*D.
	red := prof.SectionWork(trace.SecReduction)
	wantRed := float64(5 * (4*4*5 + 2*4*4))
	if red != wantRed {
		t.Errorf("reduction work = %g, want %g", red, wantRed)
	}
	if prof.SectionWork(trace.SecSerial) != float64(5*3*4*4) {
		t.Errorf("serial work = %g", prof.SectionWork(trace.SecSerial))
	}
}

func TestReductionWorkGrowsLinearly(t *testing.T) {
	ds := smallData(t)
	cfg := Config{K: 4, Iters: 3}
	var red1 float64
	for _, th := range []int{1, 2, 4, 8} {
		_, prof, err := Run(ds, cfg, th, false)
		if err != nil {
			t.Fatal(err)
		}
		red := prof.SectionWork(trace.SecReduction)
		if th == 1 {
			red1 = red
			continue
		}
		// red(p) = iters*(p*K*(D+1) + 2KD): strictly increasing in p.
		wantRatio := float64(3*(th*4*5+32)) / float64(3*(1*4*5+32))
		if math.Abs(red/red1-wantRatio) > 1e-9 {
			t.Errorf("threads=%d: reduction ratio %.3f, want %.3f", th, red/red1, wantRatio)
		}
	}
}

func TestExtractedParamsSane(t *testing.T) {
	ds := smallData(t)
	w := &KMeans{Cfg: Config{K: 4, Iters: 5}}
	var profiles []*trace.Profile
	for _, th := range []int{1, 2, 4, 8, 16} {
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
	if ap.F < 0.99 || ap.F >= 1 {
		t.Errorf("kmeans parallel fraction %.5f out of expected range", ap.F)
	}
	if ap.FOred <= 0 {
		t.Errorf("kmeans reduction overhead should be positive, got %g", ap.FOred)
	}
	if err := ap.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	ds := smallData(t)
	if _, _, err := Run(ds, Config{K: 0, Iters: 1}, 1, false); err == nil {
		t.Error("K=0 should fail")
	}
	if _, _, err := Run(ds, Config{K: 4, Iters: 0}, 1, false); err == nil {
		t.Error("Iters=0 should fail")
	}
	if _, _, err := Run(ds, Config{K: 4, Iters: 1}, 0, false); err == nil {
		t.Error("threads=0 should fail")
	}
	if _, _, err := Run(ds, Config{K: 10000, Iters: 1}, 1, false); err == nil {
		t.Error("K>N should fail")
	}
}

func TestTimingModeRecordsDurations(t *testing.T) {
	ds := smallData(t)
	_, prof, err := Run(ds, Config{K: 4, Iters: 3}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if prof.SectionDuration(trace.SecParallel) <= 0 {
		t.Error("parallel duration not recorded")
	}
	if prof.SerialDuration() <= 0 {
		t.Error("serial duration not recorded")
	}
}

func TestBuildProgramRuns(t *testing.T) {
	ds := smallData(t)
	w := &KMeans{Cfg: Config{K: 4, Iters: 2}}
	for _, cores := range []int{1, 2, 4} {
		cfg := sim.DefaultConfig(cores)
		prog, err := w.BuildProgram(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"init", "parallel", "reduction", "serial"} {
			if res.PhaseCycles(name) == 0 {
				t.Errorf("cores=%d: phase %q has zero cycles", cores, name)
			}
		}
	}
}

func TestSimulatedMergeGrows(t *testing.T) {
	ds := smallData(t)
	w := &KMeans{Cfg: Config{K: 4, Iters: 2}}
	var prev uint64
	for _, cores := range []int{1, 2, 4, 8} {
		cfg := sim.DefaultConfig(cores)
		prog, err := w.BuildProgram(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := sim.NewMachine(cfg)
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		red := res.PhaseCycles("reduction")
		if prev != 0 && red <= prev {
			t.Errorf("cores=%d: simulated merge did not grow (%d -> %d)", cores, prev, red)
		}
		prev = red
	}
}

func TestBuildProgramValidation(t *testing.T) {
	ds := smallData(t)
	w := &KMeans{Cfg: Config{K: 4, Iters: 1}}
	if _, err := w.BuildProgram(ds, sim.DefaultConfig(4), 1000); err == nil {
		t.Error("over-scaled program should fail")
	}
	w2 := &KMeans{Cfg: Config{K: 0, Iters: 1}}
	if _, err := w2.BuildProgram(ds, sim.DefaultConfig(4), 1); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestWorkloadMetadata(t *testing.T) {
	w := New()
	if w.Name() != "kmeans" {
		t.Errorf("Name = %q", w.Name())
	}
	if w.DefaultSpec().Label != "kmeans-base" {
		t.Errorf("DefaultSpec = %+v", w.DefaultSpec())
	}
	if err := w.Cfg.Validate(); err != nil {
		t.Error(err)
	}
}
