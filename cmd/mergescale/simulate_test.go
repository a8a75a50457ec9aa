package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mergescale/internal/sim"
)

// simArgs is a heavily scaled-down kmeans run, fast enough for -short.
var simArgs = []string{"simulate", "-workload", "kmeans", "-cores", "4", "-scale", "64", "-iters", "1"}

// withGlobals puts global flags before the simulate subcommand.
func withGlobals(globals ...string) []string {
	return append(globals, simArgs...)
}

func TestSimulateHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"simulate", "-h"}, &out, &errOut); code != 0 {
		t.Fatalf("simulate -h exit code = %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "-workload") {
		t.Fatalf("flag help missing:\n%s", errOut.String())
	}
}

func TestSimulateUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"simulate", "-workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown workload exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown workload "nope"`) {
		t.Fatalf("unexpected stderr: %s", errOut.String())
	}
}

// TestSimulateQuickWorkload: the text renderer lays out the run's
// document like any experiment's.
func TestSimulateQuickWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(simArgs, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{
		"== simulate: kmeans on 4 simulated cores (data kmeans-base, scale 1/64) ==",
		"phase cycles", "memory system", "c2c transfers", "barriers",
		"note: machine: 4 cores",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSimulateWarmDiskCache runs the same configuration twice against one
// cache directory: the second run must replay from disk — zero machine
// runs, zero executed jobs — and print byte-identical output.
func TestSimulateWarmDiskCache(t *testing.T) {
	args := withGlobals("-cachedir", t.TempDir(), "-stats")
	var cold, warm, coldErr, warmErr bytes.Buffer
	if code := run(args, &cold, &coldErr); code != 0 {
		t.Fatalf("cold run failed: %s", coldErr.String())
	}
	before := sim.Runs()
	if code := run(args, &warm, &warmErr); code != 0 {
		t.Fatalf("warm run failed: %s", warmErr.String())
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("warm run performed %d machine runs, want 0", ran)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm output differs from cold:\n%s\nvs\n%s", warm.String(), cold.String())
	}
	for _, want := range []string{"0 executed", "disk: 1 hits"} {
		if !strings.Contains(warmErr.String(), want) {
			t.Errorf("warm -stats lacks %q:\n%s", want, warmErr.String())
		}
	}
}

func TestSimulateInvalidCores(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"simulate", "-cores", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("-cores 0 exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "at least one core") {
		t.Fatalf("expected core-count error, got: %s", errOut.String())
	}
	if code := run([]string{"simulate", "-cores", "512"}, &out, &errOut); code != 2 {
		t.Fatalf("-cores 512 exit code = %d, want 2", code)
	}
}

// TestSimulateBadScaleOrIters: -scale and -iters below 1 are usage
// errors caught before any work: no machine run, no cache directory
// created, and the -out file left as it was.
func TestSimulateBadScaleOrIters(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-scale", "0"},
		{"-scale", "-3"},
		{"-iters", "0"},
		{"-iters", "-1"},
	} {
		dir := t.TempDir()
		cache := filepath.Join(dir, "cache")
		path := filepath.Join(dir, "run.md")
		if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append(withGlobals("-cachedir", cache, "-out", path), tc.flag, tc.value)
		var out, errOut bytes.Buffer
		before := sim.Runs()
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%s %s: exit code = %d, want 2", tc.flag, tc.value, code)
		}
		if !strings.Contains(errOut.String(), "-scale and -iters must be >= 1") {
			t.Errorf("%s %s: unexpected stderr: %s", tc.flag, tc.value, errOut.String())
		}
		if ran := sim.Runs() - before; ran != 0 {
			t.Errorf("%s %s: performed %d machine runs", tc.flag, tc.value, ran)
		}
		if _, err := os.Stat(cache); !os.IsNotExist(err) {
			t.Errorf("%s %s: the cache directory was opened (stat: %v)", tc.flag, tc.value, err)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != "precious" {
			t.Errorf("%s %s: -out file was touched: %q, %v", tc.flag, tc.value, data, err)
		}
	}
}

// TestSimulateRejectsRunOnlyFlags: -quick and -duration size and time
// experiments; before simulate they are usage errors, not no-ops.
func TestSimulateRejectsRunOnlyFlags(t *testing.T) {
	for _, flag := range []string{"-quick", "-duration"} {
		var out, errOut bytes.Buffer
		if code := run(withGlobals(flag), &out, &errOut); code != 2 {
			t.Fatalf("%s simulate: exit code = %d, want 2", flag, code)
		}
		if !strings.Contains(errOut.String(), "does not apply to simulate") {
			t.Fatalf("%s simulate: unexpected stderr: %s", flag, errOut.String())
		}
	}
}

// TestSimulateFormats: every backend renders the run as one "simulate"
// document with two tables.
func TestSimulateFormats(t *testing.T) {
	var md, errOut bytes.Buffer
	if code := run(withGlobals("-format", "markdown"), &md, &errOut); code != 0 {
		t.Fatalf("markdown run failed: %s", errOut.String())
	}
	for _, want := range []string{"## simulate: kmeans on 4 simulated cores", "**phase cycles**", "| --- |", "- machine: 4 cores"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown output missing %q:\n%s", want, md.String())
		}
	}

	var js bytes.Buffer
	if code := run(withGlobals("-format", "json"), &js, &errOut); code != 0 {
		t.Fatalf("json run failed: %s", errOut.String())
	}
	var docs []struct {
		ID     string `json:"id"`
		Tables []struct {
			Title string `json:"title"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(js.Bytes(), &docs); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	if len(docs) != 1 || docs[0].ID != "simulate" || len(docs[0].Tables) != 2 {
		t.Fatalf("json docs = %+v, want one simulate doc with 2 tables", docs)
	}

	var csv bytes.Buffer
	if code := run(withGlobals("-format", "csv"), &csv, &errOut); code != 0 {
		t.Fatalf("csv run failed: %s", errOut.String())
	}
	if !strings.Contains(csv.String(), "# phase cycles") {
		t.Errorf("csv output missing the phase table:\n%s", csv.String())
	}
}

// TestSimulateFormatUnknown: a bad -format fails before any simulation runs.
func TestSimulateFormatUnknown(t *testing.T) {
	var out, errOut bytes.Buffer
	before := sim.Runs()
	if code := run(withGlobals("-format", "yaml"), &out, &errOut); code != 2 {
		t.Fatalf("-format=yaml exit code = %d, want 2", code)
	}
	if ran := sim.Runs() - before; ran != 0 {
		t.Errorf("bad -format still performed %d machine runs", ran)
	}
}

// TestSimulateOutFile: -out writes the report to the file, leaving stdout
// empty.
func TestSimulateOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	var out, errOut bytes.Buffer
	if code := run(withGlobals("-format", "csv", "-out", path), &out, &errOut); code != 0 {
		t.Fatalf("-out run failed: %s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-out run still wrote %d bytes to stdout", out.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# phase cycles") {
		t.Errorf("-out file missing csv table:\n%s", data)
	}
}

// TestSimulateBadFormatPreservesOutFile: a -format typo must not truncate
// an existing -out file.
func TestSimulateBadFormatPreservesOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(withGlobals("-format", "yml", "-out", path), &out, &errOut); code != 2 {
		t.Fatalf("bad format exit code = %d, want 2", code)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "precious" {
		t.Errorf("-out file was clobbered by a rejected run: %q, %v", data, err)
	}
}
