package hop

import (
	"testing"

	"mergescale/internal/core"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

func smallData(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{Label: "small", N: 2000, D: 3, C: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGroupsFormAroundDensityPeaks(t *testing.T) {
	ds := smallData(t)
	res, _, err := Run(ds, DefaultConfig(), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups < 2 {
		t.Errorf("expected multiple groups, got %d", res.Groups)
	}
	// Group count should be at most a small multiple of the generating
	// cluster count on well-separated data (noise can split sparse
	// clusters, but not by orders of magnitude).
	if res.Groups > ds.Spec.C*20 {
		t.Errorf("too many groups: %d for %d generating clusters", res.Groups, ds.Spec.C)
	}
	for i, g := range res.Group {
		if g < 0 || g >= ds.N() {
			t.Fatalf("point %d has invalid group root %d", i, g)
		}
	}
}

func TestGroupsStableAcrossThreads(t *testing.T) {
	ds := smallData(t)
	base, _, err := Run(ds, DefaultConfig(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{2, 4, 8} {
		res, _, err := Run(ds, DefaultConfig(), th, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups != base.Groups {
			t.Errorf("threads=%d: groups %d != %d", th, res.Groups, base.Groups)
		}
		for i := range base.Group {
			if base.Group[i] != res.Group[i] {
				t.Fatalf("threads=%d: group of point %d differs", th, i)
			}
		}
	}
}

func TestReductionGrowsSuperlinearly(t *testing.T) {
	// Hop's merge combines per-thread cell counts (linear in threads) plus
	// cross-chunk edges (also growing), so normalized reduction growth must
	// be at least linear.
	ds := smallData(t)
	var red1 float64
	for _, th := range []int{1, 2, 4, 8} {
		_, prof, err := Run(ds, DefaultConfig(), th, false)
		if err != nil {
			t.Fatal(err)
		}
		red := prof.SectionWork(trace.SecReduction)
		if th == 1 {
			red1 = red
			continue
		}
		if red/red1 < float64(th) {
			t.Errorf("threads=%d: reduction growth %.2f below linear %d", th, red/red1, th)
		}
	}
}

func TestExtractedParamsShowHighConstantFraction(t *testing.T) {
	ds := smallData(t)
	w := New()
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
	// Table II: hop has the largest constant serial share (88%) and a
	// superlinear overhead (fored >= 1).
	if ap.FCon < 0.5 {
		t.Errorf("hop FCon = %.2f, expected dominant constant fraction", ap.FCon)
	}
	if ap.FOred < 1 {
		t.Errorf("hop FOred = %.2f, expected >= 1 (superlinear merge)", ap.FOred)
	}
}

func TestTimingMode(t *testing.T) {
	ds := smallData(t)
	_, prof, err := Run(ds, DefaultConfig(), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if prof.SectionDuration(trace.SecParallel) <= 0 {
		t.Error("no parallel duration recorded")
	}
	if prof.SectionDuration(trace.SecReduction) <= 0 {
		t.Error("no reduction duration recorded")
	}
}

func TestBuildProgramRuns(t *testing.T) {
	ds := smallData(t)
	w := New()
	for _, cores := range []int{1, 4} {
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
		for _, name := range []string{"parallel", "reduction", "serial"} {
			if res.PhaseCycles(name) == 0 {
				t.Errorf("cores=%d: phase %q empty", cores, name)
			}
		}
	}
}

func TestBuildProgramTooSmall(t *testing.T) {
	ds, _ := datagen.Generate(datagen.Spec{Label: "tiny", N: 8, D: 3, C: 2, Seed: 1})
	if _, err := New().BuildProgram(ds, sim.DefaultConfig(16), 1); err == nil {
		t.Error("tiny program should fail for 16 cores")
	}
}

func TestWorkloadMetadata(t *testing.T) {
	w := New()
	if w.Name() != "hop" {
		t.Errorf("Name = %q", w.Name())
	}
	if w.DefaultSpec().Label != "hop-default" {
		t.Errorf("DefaultSpec = %+v", w.DefaultSpec())
	}
}
