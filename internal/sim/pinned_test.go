package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
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

// pinnedRuns lists the programs TestRunPinned runs.
func pinnedRuns(t *testing.T) []pinnedRun {
	var runs []pinnedRun
	for _, cores := range []int{1, 2, 3, 5, 8, 17, 64, 255, 256} {
		for _, small := range []bool{false, true} {
			cfg := sim.DefaultConfig(cores)
			label := fmt.Sprintf("random/p=%d/default", cores)
			if small {
				// Small caches force L1 and L2 evictions.
				cfg.L1Size = 4 << 10
				cfg.L2Size = 64 << 10
				label = fmt.Sprintf("random/p=%d/small", cores)
			}
			prog := sim.RandomProgram(t, rand.New(rand.NewSource(int64(cores))), cores, 12)
			runs = append(runs, pinnedRun{label, cfg, prog})
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
