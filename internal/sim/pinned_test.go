package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/kmeans"
)

// resultDigest is a SHA-256 over everything a run reports: Cycles,
// Counters, CoreTime and Phases, in that order, little-endian.
func resultDigest(r sim.Result) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, r.Cycles)
	binary.Write(h, binary.LittleEndian, r.Counters)
	binary.Write(h, binary.LittleEndian, r.CoreTime)
	for _, p := range r.Phases {
		fmt.Fprintf(h, "%s\x00", p.Name)
		binary.Write(h, binary.LittleEndian, p.Cycles)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedRun is one program TestRunPinned runs, with its machine config.
type pinnedRun struct {
	label string
	cfg   sim.Config
	prog  *sim.Program
}

// pinnedConfig returns the default machine at cores, or with small set
// one whose small caches force L1 and L2 evictions, and its label.
func pinnedConfig(cores int, small bool) (sim.Config, string) {
	cfg := sim.DefaultConfig(cores)
	if !small {
		return cfg, "default"
	}
	cfg.L1Size = 4 << 10
	cfg.L2Size = 64 << 10
	return cfg, "small"
}

// pinnedRuns lists the programs TestRunPinned runs.
func pinnedRuns(t *testing.T) []pinnedRun {
	var runs []pinnedRun
	for _, cores := range []int{1, 2, 3, 5, 8, 17, 64, 255, 256} {
		for _, small := range []bool{false, true} {
			cfg, caches := pinnedConfig(cores, small)
			prog := sim.RandomProgram(t, rand.New(rand.NewSource(int64(cores))), cores, 12)
			runs = append(runs, pinnedRun{fmt.Sprintf("random/p=%d/%s", cores, caches), cfg, prog})
		}
	}
	// The quick contend sweep's trace: an eighth of the default spec,
	// halved by the contend scale.
	w := contend.New()
	spec := w.DefaultSpec()
	spec.N /= 8
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []contend.Mode{contend.Joined, contend.Split} {
		for _, cores := range []int{8, 16} {
			w.Cfg.Mode = mode
			cfg := sim.DefaultConfig(cores)
			prog, err := w.BuildProgram(ds, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, pinnedRun{fmt.Sprintf("contend/%s/p=%d", mode, cores), cfg, prog})
		}
	}
	// kmeans and fuzzy on their quick data sets at quick iterations, at
	// scale 8: the largest power of two that still leaves each of 256
	// cores a point.
	km, fz := kmeans.New(), fuzzy.New()
	km.Cfg.Iters, fz.Cfg.Iters = 3, 3
	for _, w := range []workload.Workload{km, fz} {
		spec := w.DefaultSpec()
		spec.N /= 8
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, cores := range []int{1, 3, 16, 64, 256} {
			for _, small := range []bool{false, true} {
				cfg, caches := pinnedConfig(cores, small)
				prog, err := w.BuildProgram(ds, cfg, 8)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, pinnedRun{fmt.Sprintf("%s/p=%d/%s", w.Name(), cores, caches), cfg, prog})
			}
		}
	}
	return runs
}

// TestRunPinned pins each run's result digest to the value recorded
// before the scheduler and access path were last optimized. The
// determinism tests compare the simulator only with itself, so a change
// in core-selection order or in a latency term passes them; it fails
// here.
func TestRunPinned(t *testing.T) {
	want := map[string]string{
		"random/p=1/default":   "f24a9ed75f0e7e9e",
		"random/p=1/small":     "544d3c3298d72c67",
		"random/p=2/default":   "8c44c70911ce1e32",
		"random/p=2/small":     "2c5abfc369deeffd",
		"random/p=3/default":   "c9c44db86b0df998",
		"random/p=3/small":     "ef58bfcd09691599",
		"random/p=5/default":   "384d017c32461783",
		"random/p=5/small":     "306ab19e94a4f267",
		"random/p=8/default":   "047467d28be574a5",
		"random/p=8/small":     "483889b19c0782c4",
		"random/p=17/default":  "af995e998463a12e",
		"random/p=17/small":    "20b7f2d43d7b0100",
		"random/p=64/default":  "85c16329ad64b181",
		"random/p=64/small":    "65f47b573ec88fbf",
		"random/p=255/default": "b962f47b0179e8df",
		"random/p=255/small":   "23954b2f47ecd9bb",
		"random/p=256/default": "f94bbaf488aee875",
		"random/p=256/small":   "8f4ae444a2f37473",
		"contend/joined/p=8":   "3a76b220a64aa90c",
		"contend/joined/p=16":  "7f5c0761dcb21c7b",
		"contend/split/p=8":    "41376d689250c2c0",
		"contend/split/p=16":   "2a45a3869500e6b8",
		"kmeans/p=1/default":   "a5bf2a5123c0fd18",
		"kmeans/p=1/small":     "c52391ed3a58fd3e",
		"kmeans/p=3/default":   "53adc8c49521e555",
		"kmeans/p=3/small":     "855907fb3e9fd79f",
		"kmeans/p=16/default":  "5301b44a7fa097a8",
		"kmeans/p=16/small":    "98365289ae29da58",
		"kmeans/p=64/default":  "dc749c512888a712",
		"kmeans/p=64/small":    "7d6a47342fdb9c6a",
		"kmeans/p=256/default": "b592710e66ae6e1a",
		"kmeans/p=256/small":   "1274798a2a6ede5b",
		"fuzzy/p=1/default":    "377dbdb852388236",
		"fuzzy/p=1/small":      "37418c30bdc57716",
		"fuzzy/p=3/default":    "34549fc6b1b6a48e",
		"fuzzy/p=3/small":      "258bbb6f40c0fcb6",
		"fuzzy/p=16/default":   "7a141cf03cbbe64b",
		"fuzzy/p=16/small":     "50580e8dd638a19d",
		"fuzzy/p=64/default":   "f31aeb4270253730",
		"fuzzy/p=64/small":     "e576c42751dedd14",
		"fuzzy/p=256/default":  "c4a9e5900571bbaa",
		"fuzzy/p=256/small":    "8d1202ecd0712438",
	}
	runs := pinnedRuns(t)
	if len(runs) != len(want) {
		t.Fatalf("%d runs, %d pinned digests", len(runs), len(want))
	}
	for _, r := range runs {
		m, err := sim.NewMachine(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(r.prog)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		got := resultDigest(res)
		if w, ok := want[r.label]; !ok || got != w {
			t.Errorf("%s: digest %s, want %s", r.label, got, w)
		}
	}
}
