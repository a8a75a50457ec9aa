package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFaultsFlagValidation: malformed specs and specs without a disk
// store to inject into are usage errors (exit 2) before any work runs.
func TestFaultsFlagValidation(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-faults", "get.bogus=1", "-quick", "run", "fig4"}, "unknown kind"},
		{[]string{"-faults", "get.err=1", "-quick", "run", "fig4"}, "requires -cachedir"},
		{[]string{"-faults", "get.err=1", "-nocache", "-cachedir", t.TempDir(), "-quick", "run", "fig4"}, "requires -cachedir"},
		{[]string{"-faults", "get.err=2", "-cachedir", t.TempDir(), "serve"}, "[0,1]"},
		{[]string{"-faults", "get.err=1", "serve"}, "requires -cachedir"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c.args, code, errOut.String())
			continue
		}
		if !strings.Contains(errOut.String(), c.wantSub) {
			t.Errorf("%v: stderr %q missing %q", c.args, errOut.String(), c.wantSub)
		}
	}
}

// TestFaultsNeverAlterOutput: the tentpole byte-identity property at the
// CLI level — a run whose disk store fails on every operation renders
// exactly the bytes of a healthy run. Faults degrade reuse, never
// correctness.
func TestFaultsNeverAlterOutput(t *testing.T) {
	var healthy, healthyErr bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", t.TempDir(), "run", "fig4"}, &healthy, &healthyErr); code != 0 {
		t.Fatalf("healthy run exit %d: %s", code, healthyErr.String())
	}

	for _, spec := range []string{
		"get.err=1,put.err=1",
		"put.enospc=1",
		"get.corrupt=1,put.corrupt=1",
	} {
		var out, errOut bytes.Buffer
		args := []string{"-quick", "-cachedir", t.TempDir(), "-faults", spec, "-stats", "run", "fig4"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("faulted run (%s) exit %d: %s", spec, code, errOut.String())
		}
		if !bytes.Equal(out.Bytes(), healthy.Bytes()) {
			t.Errorf("spec %q changed rendered bytes:\n%s\nvs healthy:\n%s", spec, out.String(), healthy.String())
		}
		if !strings.Contains(errOut.String(), "faults:") {
			t.Errorf("spec %q: -stats missing faults line:\n%s", spec, errOut.String())
		}
	}
}

// TestFaultsWarmReplayAcrossRuns: with faults injected into one process
// and not the next, the second still warm-replays whatever survived —
// and a corrupting first process must not poison it.
func TestFaultsCorruptedCacheSelfHealsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	var first, firstErr bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", dir, "-faults", "put.corrupt=1", "run", "fig4"}, &first, &firstErr); code != 0 {
		t.Fatalf("corrupting run exit %d: %s", code, firstErr.String())
	}
	// Second process, no injection: corrupted entries read as dropped
	// misses and the output is still byte-identical.
	var second, secondErr bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", dir, "run", "fig4"}, &second, &secondErr); code != 0 {
		t.Fatalf("clean run over corrupted cache exit %d: %s", code, secondErr.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("corrupted cache changed the next run's bytes")
	}
}

// TestFaultsStatsLineDeterministic: the same seed and spec inject the
// same fault sequence, so two runs over fresh cache dirs report
// identical injection counts in -stats. The injected count is a function
// of the store-op sequence, and that sequence is fixed only for a serial
// engine: with concurrent workers, which store ops reach the injector
// depends on when the breaker trips. Hence -workers 1.
func TestFaultsStatsLineDeterministic(t *testing.T) {
	statsLine := func(t *testing.T) string {
		t.Helper()
		var out, errOut bytes.Buffer
		args := []string{"-quick", "-workers", "1", "-cachedir", t.TempDir(),
			"-faults", "seed=7,get.err=0.5,put.enospc=0.5", "-stats", "run", "all"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("run exit %d: %s", code, errOut.String())
		}
		for _, line := range strings.Split(errOut.String(), "\n") {
			if strings.Contains(line, "faults:") {
				return line
			}
		}
		t.Fatalf("no faults line in stats:\n%s", errOut.String())
		return ""
	}
	a, b := statsLine(t), statsLine(t)
	if a != b {
		t.Errorf("same seed+spec, different injection stats:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "breaker") {
		t.Errorf("faults stats line missing breaker state: %s", a)
	}
}
