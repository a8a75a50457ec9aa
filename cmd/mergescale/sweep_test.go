package main

import (
	"bytes"
	"context"
	"encoding/json"
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

// bufferedSweep renders grid into a buffer without the subcommand:
// normalize, then Begin, the plan's elements, End.
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
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Run(context.Background(), r.Element); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepRendersGrid: in every format, the subcommand's streamed output
// is byte-identical to the buffered render of the same grid, with one
// table per (app, budget) group. The second grid selects asymmetric
// designs under the communication-aware model: rl is the x axis and the
// modes are named in the titles.
func TestSweepRendersGrid(t *testing.T) {
	for _, tc := range []struct {
		grid  string
		wants []string
	}{
		{testSweepGrid, []string{"Design-space sweep", "N=64", "N=256", "peak"}},
		{`{"apps":[{"f":0.99,"fcon":0.6,"fored":0.8}],"budgets":[256],"acmp_r":4,"comm":true}`,
			[]string{"N=256 — ACMP r=4 — comm", "\nrl ", "peak 51.78 at rl=32"}},
	} {
		grid := writeGrid(t, tc.grid)
		for _, format := range []string{"text", "markdown", "json", "csv"} {
			var out, errOut bytes.Buffer
			if code := run([]string{"sweep", "-grid", grid, "-format", format}, &out, &errOut); code != 0 {
				t.Fatalf("%s: exit %d: %s", format, code, errOut.String())
			}
			if want := bufferedSweep(t, tc.grid, format); !bytes.Equal(want, out.Bytes()) {
				t.Fatalf("%s: streamed output differs from the buffered render", format)
			}
			if format != "text" {
				continue
			}
			for _, want := range tc.wants {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q", want)
				}
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

// predictGrid is the model grid the retired predict binary evaluated by
// default: one app (f=0.99, fcon=0.6, fored=0.8, linear growth) on a
// budget of 256 BCEs over the power-of-two core sizes.
const predictGrid = `{"apps":[{"f":0.99,"fcon":0.6,"fored":0.8}],"budgets":[256]`

// TestSweepPredictDefaults: the symmetric sweep over predict's default
// app reports the app, the speedup column and the peak note.
func TestSweepPredictDefaults(t *testing.T) {
	grid := writeGrid(t, predictGrid+`}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"f=0.99 fcon=0.6 fored=0.8 linear — N=256", "speedup", "peak 36.23 at r=32"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSweepACMPComm: acmp_r and comm together select asymmetric designs
// under the communication-aware model, with rl as the x column.
func TestSweepACMPComm(t *testing.T) {
	grid := writeGrid(t, predictGrid+`,"acmp_r":4,"comm":true}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "\nrl ") {
		t.Fatalf("asymmetric sweep output missing rl column:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "— ACMP r=4 — comm") {
		t.Fatalf("asymmetric comm sweep title does not name its modes:\n%s", out.String())
	}
}

// TestSweepFormatMarkdown: -format markdown renders the document heading,
// a pipe table and the peak note.
func TestSweepFormatMarkdown(t *testing.T) {
	grid := writeGrid(t, predictGrid+`}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid, "-format", "markdown"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"## sweep: ", "| --- |", "peak 36.23 at r=32"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("markdown output missing %q:\n%.300s", want, out.String())
		}
	}
}

// TestSweepFormatJSON: -format json emits one parseable document with one
// sweep table, whose x column is rl for an acmp_r grid.
func TestSweepFormatJSON(t *testing.T) {
	grid := writeGrid(t, predictGrid+`,"acmp_r":4}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid, "-format", "json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var docs []struct {
		ID     string `json:"id"`
		Tables []struct {
			Columns []string `json:"columns"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(out.Bytes(), &docs); err != nil {
		t.Fatalf("json output does not parse: %v\n%.300s", err, out.String())
	}
	if len(docs) != 1 || docs[0].ID != "sweep" {
		t.Fatalf("json docs = %+v, want one sweep document", docs)
	}
	if len(docs[0].Tables) != 1 || len(docs[0].Tables[0].Columns) == 0 || docs[0].Tables[0].Columns[0] != "rl" {
		t.Fatalf("sweep table missing or mislabeled: %+v", docs[0].Tables)
	}
}

// TestSweepInvalidParams: an out-of-domain f and an unknown growth
// function are usage errors.
func TestSweepInvalidParams(t *testing.T) {
	for _, app := range []string{`{"f":1.5}`, `{"f":0.99,"growth":"cubic"}`} {
		grid := writeGrid(t, `{"apps":[`+app+`],"budgets":[256]}`)
		var out, errOut bytes.Buffer
		if code := run([]string{"sweep", "-grid", grid}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", app, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: rendered output despite the usage error", app)
		}
	}
}

// TestSweepOutFile: -out writes the rendered report to the file and
// nothing to stdout, matching the stdout rendering byte for byte.
func TestSweepOutFile(t *testing.T) {
	grid := writeGrid(t, predictGrid+`}`)
	path := filepath.Join(t.TempDir(), "sweep.csv")
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid, "-format", "csv", "-out", path}, &out, &errOut); code != 0 {
		t.Fatalf("-out run failed: %s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-out run still wrote %d bytes to stdout", out.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid, "-format", "csv"}, &direct, &errOut); code != 0 {
		t.Fatalf("direct run failed: %s", errOut.String())
	}
	if len(data) == 0 || !bytes.Equal(data, direct.Bytes()) {
		t.Error("-out file differs from stdout rendering")
	}
}

// TestSweepUnknownFormatPreservesOutFile: a -format typo is a usage error
// and must not truncate an existing -out file.
func TestSweepUnknownFormatPreservesOutFile(t *testing.T) {
	grid := writeGrid(t, predictGrid+`}`)
	path := filepath.Join(t.TempDir(), "sweep.md")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid, "-format", "yaml", "-out", path}, &out, &errOut); code != 2 {
		t.Fatalf("-format=yaml exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown format") {
		t.Fatalf("expected unknown-format error, got: %s", errOut.String())
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "precious" {
		t.Errorf("-out file was clobbered by a rejected run: %q, %v", data, err)
	}
}
