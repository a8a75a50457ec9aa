package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

const testSweepGrid = `{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],"budgets":[64,256],"rs":[1,2,4,8,16]}`

// writeGrid writes a grid JSON to a temp file and returns its path.
func writeGrid(t *testing.T, grid string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// bufferedSweep renders grid without streaming: normalize, run to a
// document, then Begin/Replay/End.
func bufferedSweep(t *testing.T, grid, format string) []byte {
	t.Helper()
	req, err := experiments.ParseSweepRequest(strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := plan.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := doc.Replay(r); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepRendersGrid: in every format, the subcommand's streamed output
// is byte-identical to the buffered render of the same grid, with one
// table per (app, budget) group.
func TestSweepRendersGrid(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	for _, format := range []string{"text", "markdown", "json", "csv"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"sweep", "-grid", grid, "-format", format}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d: %s", format, code, errOut.String())
		}
		if want := bufferedSweep(t, testSweepGrid, format); !bytes.Equal(want, out.Bytes()) {
			t.Fatalf("%s: streamed output differs from the buffered render", format)
		}
		if format != "text" {
			continue
		}
		for _, want := range []string{"Design-space sweep", "N=64", "N=256", "peak"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("output lacks %q", want)
			}
		}
	}
}

// TestSweepNocacheIsNoOp: -nocache is still accepted and changes nothing.
// The benchmark harness checks /sweep bodies against `sweep -nocache`.
func TestSweepNocacheIsNoOp(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	var plain, nocache, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid}, &plain, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"sweep", "-nocache", "-grid", grid}, &nocache, &errOut); code != 0 {
		t.Fatalf("-nocache: exit %d: %s", code, errOut.String())
	}
	if plain.Len() == 0 || !bytes.Equal(plain.Bytes(), nocache.Bytes()) {
		t.Fatal("sweep -nocache rendered different bytes")
	}
}

// TestSweepRemovedFlagsAreUsageErrors: sweep points never reach an engine
// or a cache, so the engine and cache flags sweep used to take are gone,
// and passing one is a usage error rather than a silent no-op.
func TestSweepRemovedFlagsAreUsageErrors(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	for _, flags := range [][]string{
		{"-workers", "2"},
		{"-cachedir", t.TempDir()},
		{"-cachettl", "1h"},
		{"-pinfile", "p"},
		{"-faults", "put.err=1"},
		{"-stats"},
	} {
		var out, errOut bytes.Buffer
		args := append([]string{"sweep", "-grid", grid}, flags...)
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", flags, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: rendered output despite the usage error", flags)
		}
	}
}

// TestPinFlagsAreUsageErrors: the disk-cache pin set is gone, and with it
// the global -pinfile and serve -pincap flags.
func TestPinFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-pinfile", "p", "-cachedir", t.TempDir(), "-quick", "run", "fig4"},
		{"serve", "-pincap", "4"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr %q does not name the unknown flag", args, errOut.String())
		}
	}
}

// TestSweepBadGridFails: a malformed grid is a usage error (exit 2) with
// a one-line reason, and -out is never touched.
func TestSweepBadGridFails(t *testing.T) {
	grid := writeGrid(t, `{"apps":[],"budgets":[64]}`)
	out := filepath.Join(t.TempDir(), "report.txt")
	if err := os.WriteFile(out, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid, "-out", out}, &stdout, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut.String())
	}
	if data, err := os.ReadFile(out); err != nil || string(data) != "precious" {
		t.Fatalf("bad grid clobbered -out file: %q, %v", data, err)
	}
}

// TestSweepTimingGoesToStderr: -timing reports first-row and total wall
// time on stderr only, leaving stdout bytes untouched.
func TestSweepTimingGoesToStderr(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	var plain, timed, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid}, &plain, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"sweep", "-grid", grid, "-timing"}, &timed, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !bytes.Equal(plain.Bytes(), timed.Bytes()) {
		t.Fatal("-timing changed stdout bytes")
	}
	msg := errOut.String()
	for _, want := range []string{"points=20", "rows=20", "first-row=", "total="} {
		if !strings.Contains(msg, want) {
			t.Errorf("timing line %q lacks %q", msg, want)
		}
	}
}

// TestSweepRejectsGlobalFlags: like load, sweep owns its flag surface —
// a global flag before the subcommand is refused, not silently ignored.
func TestSweepRejectsGlobalFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "sweep"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "does not apply to sweep") {
		t.Fatalf("unexpected stderr: %s", errOut.String())
	}
}
